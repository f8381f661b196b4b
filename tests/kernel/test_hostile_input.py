"""Hostile-input hardening: adversarial frames, link flaps, map faults.

The invariant under attack is the PR 4 conservation ledger:

    rx_packets + tx_local_packets == settled + pending_packets()
    settled == sum(outcomes) + dropped

plus "no exception, ever": truncated, malformed, or garbage frames — and
injected data-plane faults — must always settle with a *named* drop reason
(or a legitimate outcome), on both the plain and the accelerated pipeline.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kernel.kernel import Kernel
from repro.measure.topology import LineTopology
from repro.netsim.addresses import IfAddr, MacAddr
from repro.netsim.packet import make_udp
from repro.observability.drop_reasons import reason_names
from repro.testing import faults


def assert_conserved(stack):
    pending = stack.pending_packets()
    assert stack.rx_packets + stack.tx_local_packets == stack.settled + pending
    assert stack.settled == sum(stack.outcomes.values()) + stack.dropped


def fresh_topo(accelerated=False):
    from repro.core import Controller

    topo = LineTopology()
    topo.install_prefixes(4)
    if accelerated:
        Controller(topo.dut, hook="xdp").start()
    topo.prewarm_neighbors()
    return topo


def valid_frame(topo, i=0):
    return make_udp(
        topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", topo.flow_destination(i, 4),
        sport=1234, dport=9, ttl=16,
    ).to_bytes()


# hostile inputs: pure garbage, truncations of a valid frame, and valid
# frames with a corrupted byte — the three classic fuzz families
garbage = st.binary(min_size=0, max_size=128)
truncate_at = st.integers(min_value=0, max_value=80)
corrupt = st.tuples(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=255))


class TestAdversarialFrames:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(blobs=st.lists(garbage, min_size=1, max_size=8))
    def test_garbage_never_raises_and_ledger_balances(self, blobs):
        topo = fresh_topo()
        for blob in blobs:
            topo.dut_in.nic.receive_from_wire(blob)
        assert_conserved(topo.dut.stack)
        registered = set(reason_names())
        assert set(topo.dut.stack.drops) <= registered

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cuts=st.lists(truncate_at, min_size=1, max_size=8))
    def test_truncated_frames_settle_with_named_reason(self, cuts):
        topo = fresh_topo()
        frame = valid_frame(topo)
        for cut in cuts:
            topo.dut_in.nic.receive_from_wire(frame[:cut])
        assert_conserved(topo.dut.stack)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutations=st.lists(corrupt, min_size=1, max_size=8))
    def test_bitflipped_frames_on_accelerated_pipeline(self, mutations):
        topo = fresh_topo(accelerated=True)
        frame = bytearray(valid_frame(topo))
        for offset, value in mutations:
            mutant = bytearray(frame)
            mutant[offset % len(mutant)] = value
            topo.dut_in.nic.receive_from_wire(bytes(mutant))
        assert_conserved(topo.dut.stack)


class TestRoutedIntoABridge:
    """The XDP router FPM forwards a frame whose IPv4 header ``ip_rcv``
    would refuse into a bridge device. The bridge forwards it by
    destination MAC without parsing L3, as ``br_dev_xmit`` does; with vlan
    filtering, whose tag needs a parse, it drops the frame as
    ``malformed``. Either way nothing raises and the packet settles once."""

    @staticmethod
    def bridged_topo(vlan_filtering):
        from repro.core import Controller

        topo = LineTopology()
        dut = topo.dut
        dut.del_address("eth1", "10.0.2.1")
        dut.add_bridge("br0")
        dut.set_link("br0", True)
        dut.enslave("eth1", "br0")
        if vlan_filtering:
            dut.set_bridge_attrs("br0", vlan_filtering=True)
        dut.add_address("br0", "10.0.2.1/24")
        topo.install_prefixes(4)
        dut.neigh_add("br0", "10.0.2.2", topo.sink_eth.mac)
        Controller(dut, hook="xdp").start()
        topo.prewarm_neighbors()
        return topo

    @pytest.mark.parametrize("vlan_filtering", [False, True])
    def test_a_damaged_header_settles_once(self, vlan_filtering):
        topo = self.bridged_topo(vlan_filtering)
        out = []
        topo.sink_eth.nic.attach(lambda frame, q: out.append(frame))
        good = valid_frame(topo)
        topo.dut_in.nic.receive_from_wire(good)
        assert len(out) == 1
        damaged = bytearray(good)
        damaged[24] ^= 0xFF  # the IPv4 header checksum
        topo.dut_in.nic.receive_from_wire(bytes(damaged))
        stack = topo.dut.stack
        assert stack.rx_packets == stack.settled == 2
        assert stack.outcomes["xdp_redirect"] == 2
        assert_conserved(stack)
        if vlan_filtering:
            assert len(out) == 1
            assert dict(stack.drops) == {"malformed": 1}
        else:
            assert len(out) == 2
            assert not stack.drops


class TestDeviceDropReasons:
    def test_veth_down_peer_emits_dev_link_down(self):
        # Satellite bugfix: this used to be a silent discard.
        kernel = Kernel("host")
        a, b = kernel.add_veth_pair("va", "vb")
        kernel.set_link("va", True)  # peer vb stays down
        a.transmit(b"\x00" * 20)
        assert a.dropped == 1
        assert kernel.stack.drops["dev_link_down"] == 1
        assert kernel.observability.drops.by_device[("va", "dev_link_down")] == 1

    def test_forwarded_packet_to_downed_peer_balances_ledger(self):
        kernel = Kernel("dut")
        eth = kernel.add_physical("eth0")
        kernel.set_link("eth0", True)
        veth, peer = kernel.add_veth_pair("v0", "v1")
        kernel.set_link("v0", True)  # v1 down: egress discards at the device
        eth.add_address(IfAddr.parse("10.0.0.1/24"))
        veth.add_address(IfAddr.parse("10.0.1.1/24"))
        kernel.sysctl.set("net.ipv4.ip_forward", "1")
        from repro.kernel.fib import Route, SCOPE_LINK
        from repro.netsim.addresses import IPv4Prefix

        kernel.fib.add(Route(IPv4Prefix.parse("10.0.1.0/24"), oif=veth.ifindex, scope=SCOPE_LINK))
        kernel.neighbors.update(veth.ifindex, "10.0.1.9", MacAddr.parse("02:00:00:00:00:77"))
        frame = make_udp(
            MacAddr.parse("02:00:00:00:00:55"), eth.mac, "10.0.0.9", "10.0.1.9",
            sport=1, dport=2,
        ).to_bytes()
        eth.nic.receive_from_wire(frame)
        stack = kernel.stack
        # the stack handed the frame off (outcome tx); the device recorded
        # the loss under a named reason — the ledger still balances
        assert stack.outcomes["tx"] == 1
        assert stack.drops["dev_link_down"] == 1
        assert_conserved(stack)

    def test_vxlan_runt_frame_is_malformed(self):
        kernel = Kernel("node")
        vx = kernel.add_vxlan("vxlan0", vni=7, local="192.168.0.1")
        kernel.set_link("vxlan0", True)
        vx.transmit(b"\x01\x02\x03")  # shorter than an ethernet header
        assert vx.dropped == 1
        assert kernel.stack.drops["malformed"] == 1

    def test_vxlan_fdb_miss_named(self):
        kernel = Kernel("node")
        vx = kernel.add_vxlan("vxlan0", vni=7, local="192.168.0.1")
        kernel.set_link("vxlan0", True)
        dst = MacAddr.parse("02:00:00:00:00:42")
        frame = dst.to_bytes() + b"\x00" * 20
        vx.transmit(frame)
        assert kernel.stack.drops["vxlan_no_remote"] == 1


class TestInjectedDataPlaneFaults:
    def test_link_flap_losses_are_counted_not_silent(self):
        topo = fresh_topo()
        frames = [valid_frame(topo, i) for i in range(10)]
        with faults.injected(seed=7) as inj:
            inj.arm("link_flap", probability=0.5)
            for frame in frames:
                topo.dut_in.nic.receive_from_wire(frame)
        stack = topo.dut.stack
        assert len(inj.fired_at("link_flap")) > 0
        assert stack.drops["dev_link_down"] == len(inj.fired_at("link_flap"))
        assert_conserved(stack)

    def test_arm_everything_excludes_data_plane_by_default(self):
        inj = faults.FaultInjector(seed=1)
        inj.arm_everything(probability=1.0)
        assert inj.decide("link_flap", "eth0") is None
        inj2 = faults.FaultInjector(seed=1)
        inj2.arm_everything(probability=1.0, include_data_plane=True)
        assert inj2.decide("link_flap", "eth0") == "drop"

    def test_map_update_faults_degrade_to_pass_with_counter(self):
        # Polycube's router cube updates its counter map on every packet;
        # failing updates must not perturb forwarding: the helper returns an
        # error code, the program continues, and the failure is visible on
        # the map's pressure counter
        from repro.measure.scenarios import setup_router

        topo = setup_router("polycube", 4)
        delivered = []
        topo.sink_eth.nic.attach(lambda frame, q: delivered.append(frame))
        counters = topo.polycube.counters
        with faults.injected(seed=3) as inj:
            inj.arm("map_update", match=counters.name)
            for i in range(8):
                topo.dut_in.nic.receive_from_wire(valid_frame(topo, i))
        assert len(delivered) == 8  # forwarding unaffected
        assert counters.update_errors == 8
        assert_conserved(topo.dut.stack)
