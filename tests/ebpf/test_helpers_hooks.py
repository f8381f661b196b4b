"""Tests for kernel helpers and XDP/TC hook integration."""

import pytest

from repro.ebpf.helpers import (
    FIB_LKUP_RET_NO_NEIGH,
    FIB_LKUP_RET_NOT_FWDED,
    FIB_LKUP_RET_SUCCESS,
    HELPER_IDS,
    IPT_ACCEPT,
    IPT_DROP,
    bpf_conntrack_lookup,
    bpf_fdb_lookup,
    bpf_fib_lookup,
    bpf_ipt_lookup,
)
from repro.ebpf.loader import Loader, LoaderError
from repro.ebpf.memory import Pointer, Region
from repro.ebpf.minic import compile_c
from repro.ebpf.vm import Env
from repro.kernel import Kernel
from repro.kernel.bridge import STP_BLOCKING
from repro.kernel.netfilter import Rule
from repro.netsim.addresses import IPv4Prefix, MacAddr, ipv4
from repro.netsim.packet import IPPROTO_TCP, make_tcp, make_udp

MAC_NEXT_HOP = MacAddr.parse("02:aa:00:00:00:99")


@pytest.fixture
def kernel():
    k = Kernel("helper-test")
    k.add_physical("eth0")
    k.add_physical("eth1")
    k.set_link("eth0", True)
    k.set_link("eth1", True)
    k.add_address("eth0", "10.0.1.1/24")
    k.add_address("eth1", "10.0.2.1/24")
    return k


def env_for(kernel):
    return Env(kernel, redirect_verdict=4)


def out_buf(size=16):
    region = Region("stack", bytearray(size), allow_pointers=True)
    return Pointer(region, 0), region


class TestFibLookupHelper:
    def test_success_writes_rewrite_data(self, kernel):
        kernel.route_add("10.99.0.0/16", via="10.0.2.2")
        kernel.neigh_add("eth1", "10.0.2.2", MAC_NEXT_HOP)
        ptr, region = out_buf()
        rc = bpf_fib_lookup(env_for(kernel), [ipv4("10.99.1.1").value, ptr, 0, 0, 0])
        assert rc == FIB_LKUP_RET_SUCCESS
        oif = int.from_bytes(region.data[0:4], "big")
        assert oif == kernel.devices.by_name("eth1").ifindex
        assert MacAddr.from_bytes(bytes(region.data[4:10])) == kernel.devices.by_name("eth1").mac
        assert MacAddr.from_bytes(bytes(region.data[10:16])) == MAC_NEXT_HOP

    def test_no_route(self, kernel):
        ptr, __ = out_buf()
        rc = bpf_fib_lookup(env_for(kernel), [ipv4("192.168.50.1").value, ptr, 0, 0, 0])
        assert rc == FIB_LKUP_RET_NOT_FWDED

    def test_unresolved_neighbor(self, kernel):
        kernel.route_add("10.99.0.0/16", via="10.0.2.2")
        ptr, __ = out_buf()
        rc = bpf_fib_lookup(env_for(kernel), [ipv4("10.99.1.1").value, ptr, 0, 0, 0])
        assert rc == FIB_LKUP_RET_NO_NEIGH

    def test_charges_cost(self, kernel):
        ptr, __ = out_buf()
        t0 = kernel.clock.now_ns
        bpf_fib_lookup(env_for(kernel), [0, ptr, 0, 0, 0])
        assert kernel.clock.now_ns - t0 == pytest.approx(kernel.costs.helper_fib_lookup, abs=1)


class TestFdbLookupHelper:
    def make_bridge(self, kernel):
        kernel.add_bridge("br0")
        kernel.set_link("br0", True)
        for i in range(2):
            kernel.add_veth_pair(f"v{i}", f"p{i}")
            kernel.set_link(f"v{i}", True)
            kernel.set_link(f"p{i}", True)
            kernel.enslave(f"v{i}", "br0")
        return kernel.devices.by_name("br0")

    def test_hit_returns_egress_port(self, kernel):
        bridge_dev = self.make_bridge(kernel)
        v0 = kernel.devices.by_name("v0")
        v1 = kernel.devices.by_name("v1")
        mac = MacAddr.parse("02:bb:00:00:00:01")
        bridge_dev.bridge.fdb_learn(mac, 1, v1.ifindex)
        rc = bpf_fdb_lookup(env_for(kernel), [bridge_dev.ifindex, v0.ifindex, 1, mac.value, 0])
        assert rc == v1.ifindex

    def test_miss_returns_zero(self, kernel):
        bridge_dev = self.make_bridge(kernel)
        v0 = kernel.devices.by_name("v0")
        rc = bpf_fdb_lookup(
            env_for(kernel), [bridge_dev.ifindex, v0.ifindex, 1, MacAddr.parse("02:bb:00:00:00:02").value, 0]
        )
        assert rc == 0

    def test_aged_entry_returns_zero(self, kernel):
        bridge_dev = self.make_bridge(kernel)
        v0, v1 = kernel.devices.by_name("v0"), kernel.devices.by_name("v1")
        mac = MacAddr.parse("02:bb:00:00:00:01")
        bridge_dev.bridge.fdb_learn(mac, 1, v1.ifindex)
        kernel.clock.advance(bridge_dev.bridge.ageing_time_ns + 1)
        assert bpf_fdb_lookup(env_for(kernel), [bridge_dev.ifindex, v0.ifindex, 1, mac.value, 0]) == 0

    def test_blocked_egress_port_returns_zero(self, kernel):
        bridge_dev = self.make_bridge(kernel)
        v0, v1 = kernel.devices.by_name("v0"), kernel.devices.by_name("v1")
        mac = MacAddr.parse("02:bb:00:00:00:01")
        bridge_dev.bridge.fdb_learn(mac, 1, v1.ifindex)
        bridge_dev.bridge.stp_enabled = True
        bridge_dev.bridge.ports[v1.ifindex].state = STP_BLOCKING
        assert bpf_fdb_lookup(env_for(kernel), [bridge_dev.ifindex, v0.ifindex, 1, mac.value, 0]) == 0

    def test_local_mac_returns_zero(self, kernel):
        bridge_dev = self.make_bridge(kernel)
        v0 = kernel.devices.by_name("v0")
        rc = bpf_fdb_lookup(env_for(kernel), [bridge_dev.ifindex, v0.ifindex, 1, bridge_dev.mac.value, 0])
        assert rc == 0

    def test_src_check_fresh_entry(self, kernel):
        bridge_dev = self.make_bridge(kernel)
        v0 = kernel.devices.by_name("v0")
        mac = MacAddr.parse("02:bb:00:00:00:03")
        bridge_dev.bridge.fdb_learn(mac, 1, v0.ifindex)
        assert bpf_fdb_lookup(env_for(kernel), [bridge_dev.ifindex, v0.ifindex, 1, mac.value, 1]) == v0.ifindex

    def test_src_check_station_move_returns_zero(self, kernel):
        """A source MAC seen on a different port must go to the slow path."""
        bridge_dev = self.make_bridge(kernel)
        v0, v1 = kernel.devices.by_name("v0"), kernel.devices.by_name("v1")
        mac = MacAddr.parse("02:bb:00:00:00:03")
        bridge_dev.bridge.fdb_learn(mac, 1, v1.ifindex)
        assert bpf_fdb_lookup(env_for(kernel), [bridge_dev.ifindex, v0.ifindex, 1, mac.value, 1]) == 0

    def test_non_bridge_ifindex_returns_zero(self, kernel):
        eth0 = kernel.devices.by_name("eth0")
        assert bpf_fdb_lookup(env_for(kernel), [eth0.ifindex, 1, 1, 0x020000000001, 0]) == 0
        assert bpf_fdb_lookup(env_for(kernel), [999, 1, 1, 0x020000000001, 0]) == 0  # no such device


class TestIptLookupHelper:
    def packet_region(self, src="10.0.0.5", dst="10.0.9.9"):
        frame = make_udp("02:00:00:00:00:01", "02:00:00:00:00:02", src, dst).to_bytes()
        region = Region("pkt", bytearray(frame))
        return Pointer(region, 0), len(frame)

    def test_accept_by_default(self, kernel):
        ptr, length = self.packet_region()
        assert bpf_ipt_lookup(env_for(kernel), [1, ptr, length, 0, 0]) == IPT_ACCEPT

    def test_drop_rule_matches(self, kernel):
        kernel.ipt_append("FORWARD", Rule(target="DROP", src=IPv4Prefix.parse("10.0.0.0/24")))
        ptr, length = self.packet_region()
        assert bpf_ipt_lookup(env_for(kernel), [1, ptr, length, 0, 0]) == IPT_DROP
        # an unknown ifindex has no interface name; the lookup still runs
        assert bpf_ipt_lookup(env_for(kernel), [1, ptr, length, 999, 999]) == IPT_DROP

    def test_linear_cost_in_rules(self, kernel):
        """The fast path inherits iptables' linear scan (Fig 8)."""
        for i in range(200):
            kernel.ipt_append("FORWARD", Rule(target="DROP", src=IPv4Prefix.parse(f"172.16.{i}.0/24")))
        ptr, length = self.packet_region()
        t0 = kernel.clock.now_ns
        bpf_ipt_lookup(env_for(kernel), [1, ptr, length, 0, 0])
        elapsed = kernel.clock.now_ns - t0
        expected = kernel.costs.helper_ipt_base + 200 * kernel.costs.helper_ipt_per_rule
        assert elapsed == pytest.approx(expected, abs=2)

    def test_ipset_rule_constant_cost(self, kernel):
        kernel.ipset_create("bl", "hash:ip")
        for i in range(100):
            kernel.ipset_add("bl", f"172.16.0.{i}")
        kernel.ipt_append("FORWARD", Rule(target="DROP", match_set="bl", set_dir="src"))
        ptr, length = self.packet_region(src="172.16.0.50")
        assert bpf_ipt_lookup(env_for(kernel), [1, ptr, length, 0, 0]) == IPT_DROP
        ptr, length = self.packet_region(src="10.0.0.5")
        assert bpf_ipt_lookup(env_for(kernel), [1, ptr, length, 0, 0]) == IPT_ACCEPT

    def test_drop_policy(self, kernel):
        kernel.ipt_policy("FORWARD", "DROP")
        ptr, length = self.packet_region()
        assert bpf_ipt_lookup(env_for(kernel), [1, ptr, length, 0, 0]) == IPT_DROP

    def test_bad_chain_unsupported(self, kernel):
        ptr, length = self.packet_region()
        from repro.ebpf.helpers import IPT_UNSUPPORTED

        assert bpf_ipt_lookup(env_for(kernel), [9, ptr, length, 0, 0]) == IPT_UNSUPPORTED


class TestConntrackHelper:
    def test_hit_after_ipvs_pin(self, kernel):
        kernel.ipvs_add_service("10.96.0.1", 80, IPPROTO_TCP)
        kernel.ipvs_add_dest("10.96.0.1", 80, IPPROTO_TCP, "10.244.1.10", 8080)
        from repro.kernel.conntrack import ConnTuple

        tup = ConnTuple(ipv4("10.0.0.1"), ipv4("10.96.0.1"), IPPROTO_TCP, 1234, 80)
        kernel.ipvs.connect(tup)
        ptr, region = out_buf(8)
        rc = bpf_conntrack_lookup(
            env_for(kernel), [ipv4("10.0.0.1").value, ipv4("10.96.0.1").value, IPPROTO_TCP, (1234 << 16) | 80, ptr]
        )
        assert rc == 1
        assert bytes(region.data[0:4]) == ipv4("10.244.1.10").to_bytes()
        assert int.from_bytes(region.data[4:6], "big") == 8080

    def test_miss(self, kernel):
        ptr, __ = out_buf(8)
        rc = bpf_conntrack_lookup(env_for(kernel), [1, 2, IPPROTO_TCP, 3, ptr])
        assert rc == 0


PASS_ALL = "u32 main(u8* pkt, u64 len, u64 ifindex) { return 2; }"
DROP_ALL = "u32 main(u8* pkt, u64 len, u64 ifindex) { return 1; }"


class TestHooksAndLoader:
    def test_xdp_drop_counts(self, kernel):
        loader = Loader(kernel)
        att = loader.load(compile_c(DROP_ALL, name="drop", hook="xdp"))
        loader.attach_xdp("eth0", att)
        frame = make_udp("02:00:00:00:00:01", "02:00:00:00:00:02", "1.1.1.1", "10.0.1.1").to_bytes()
        kernel.devices.by_name("eth0").nic.receive_from_wire(frame)
        assert kernel.stack.drops["xdp_drop"] == 1
        assert att.invocations == 1

    def test_xdp_pass_reaches_stack(self, kernel):
        loader = Loader(kernel)
        att = loader.load(compile_c(PASS_ALL, name="pass", hook="xdp"))
        loader.attach_xdp("eth0", att)
        frame = make_udp("02:00:00:00:00:01", "02:00:00:00:00:02", "1.1.1.1", "10.0.1.1", dport=9).to_bytes()
        kernel.devices.by_name("eth0").nic.receive_from_wire(frame)
        assert kernel.stack.drops["no_socket"] == 1  # made it to local delivery

    def test_tc_shot(self, kernel):
        loader = Loader(kernel)
        att = loader.load(compile_c(DROP_ALL.replace("return 1", "return 2"), name="shot", hook="tc"))
        loader.attach_tc("eth0", att)
        frame = make_udp("02:00:00:00:00:01", "02:00:00:00:00:02", "1.1.1.1", "10.0.1.1").to_bytes()
        kernel.devices.by_name("eth0").nic.receive_from_wire(frame)
        assert kernel.stack.drops["tc_shot"] == 1

    def test_abort_becomes_drop(self, kernel):
        from repro.ebpf.hooks import XdpAttachment
        from repro.ebpf.verifier import VerifierError

        bad = "u32 main(u8* pkt, u64 len, u64 ifindex) { return ld32(pkt, 5000); }"
        program = compile_c(bad, name="bad", hook="xdp")
        # the range-tracking verifier rejects the unguarded read statically...
        with pytest.raises(VerifierError, match="packet"):
            Loader(kernel).load(program)
        # ...and the runtime fat pointers remain as defense in depth: force
        # the program onto the hook anyway and the abort still becomes a drop
        att = XdpAttachment(program)
        kernel.devices.by_name("eth0").xdp_prog = att
        frame = make_udp("02:00:00:00:00:01", "02:00:00:00:00:02", "1.1.1.1", "10.0.1.1").to_bytes()
        kernel.devices.by_name("eth0").nic.receive_from_wire(frame)
        assert att.aborts == 1
        assert kernel.stack.drops["xdp_aborted"] == 1

    def test_hook_mismatch_rejected(self, kernel):
        loader = Loader(kernel)
        xdp_att = loader.load(compile_c(PASS_ALL, name="x", hook="xdp"))
        with pytest.raises(LoaderError):
            loader.attach_tc("eth0", xdp_att)

    def test_loader_verifies(self, kernel):
        from repro.ebpf.isa import mov_reg, exit_
        from repro.ebpf.program import Program
        from repro.ebpf.verifier import VerifierError

        bad = Program("bad", [mov_reg(0, 9), exit_()], hook="xdp")
        with pytest.raises(VerifierError):
            Loader(kernel).load(bad)

    def test_detach(self, kernel):
        loader = Loader(kernel)
        att = loader.load(compile_c(DROP_ALL, name="drop", hook="xdp"))
        loader.attach_xdp("eth0", att)
        loader.detach_xdp("eth0")
        frame = make_udp("02:00:00:00:00:01", "02:00:00:00:00:02", "1.1.1.1", "10.0.1.1", dport=9).to_bytes()
        kernel.devices.by_name("eth0").nic.receive_from_wire(frame)
        assert kernel.stack.drops["xdp_drop"] == 0

    def test_xdp_rewrite_visible_downstream(self, kernel):
        rewrite = """
        u32 main(u8* pkt, u64 len, u64 ifindex) {
            if (len < 6) { return 2; }
            st48(pkt, 0, 0x020000000042);
            return 2;
        }
        """
        loader = Loader(kernel)
        att = loader.load(compile_c(rewrite, name="rw", hook="xdp"))
        loader.attach_xdp("eth0", att)
        seen = []
        kernel.stack.netif_receive = lambda dev, skb: seen.append(skb.pkt.eth.dst)
        frame = make_udp("02:00:00:00:00:01", "02:00:00:00:00:02", "1.1.1.1", "10.0.1.1").to_bytes()
        kernel.devices.by_name("eth0").nic.receive_from_wire(frame)
        assert seen == [MacAddr.parse("02:00:00:00:00:42")]
