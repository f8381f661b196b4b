"""The compiled first-match scan that ``bpf_ipt_lookup`` and
``Netfilter.evaluate`` share.

The two per-rule loops the helper and the slow path ran before they shared
``Netfilter.scan`` stay here as the reference. A differential oracle gives
two kernels the same rules, ipsets and packets; one runs the shared scan, the
other the reference loops, and every observable must agree per packet, down
to the exact simulated clock and CPU busy time. The remaining tests pin the
scan's charge-call count and the counters that show it is used.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebpf.helpers import IPT_ACCEPT, IPT_DROP, IPT_UNSUPPORTED, bpf_ipt_lookup
from repro.ebpf.memory import MemoryError_, Pointer, Region
from repro.ebpf.vm import Env
from repro.kernel import Kernel
from repro.kernel.interfaces import DeviceError
from repro.kernel.netfilter import ACCEPT, BUILTIN_CHAINS, DROP, FORWARD, HELPER, RETURN, Rule
from repro.measure.k8s_bench import container_cost_model
from repro.measure.scenarios import blacklist_address, setup_gateway
from repro.measure.topology import LineTopology
from repro.netsim.addresses import IPv4Addr, IPv4Prefix, MacAddr
from repro.netsim.checksum import internet_checksum
from repro.netsim.cost import CostModel
from repro.netsim.packet import (
    ETH_P_IP,
    ICMP,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPv4,
    Ethernet,
    Packet,
    PacketError,
    ipv4_fields,
    make_arp_request,
    make_tcp,
    make_udp,
)
from repro.netsim.skbuff import SKBuff
from repro.observability.metrics import MetricsRegistry
from repro.tools import iptables

MAC1 = "02:00:00:00:00:01"
MAC2 = "02:00:00:00:00:02"


# ------------------------------------------------------------ the reference

def reference_ipt_lookup(env, args):
    """``bpf_ipt_lookup`` as a per-rule loop; returns (IPT_*, rules scanned)."""
    kernel = env.kernel
    kernel.costs_charge("helper_ipt_base")
    chain_name = {0: "INPUT", 1: "FORWARD", 2: "OUTPUT"}.get(args[0])
    if chain_name is None:
        return IPT_UNSUPPORTED, 0
    pkt_ptr, pkt_len = args[1], args[2]
    try:
        pkt = Packet.from_bytes(pkt_ptr.region.read_bytes(pkt_ptr.offset, pkt_len))
    except (PacketError, MemoryError_):
        return IPT_UNSUPPORTED, 0
    if pkt.ip is None:
        return IPT_ACCEPT, 0

    def name_of(ifindex):
        if ifindex == 0:
            return None
        try:
            return kernel.devices.by_index(ifindex).name
        except DeviceError:
            return None

    in_name, out_name = name_of(args[3]), name_of(args[4])
    skb = SKBuff(pkt=pkt)
    chain = kernel.netfilter.chain(chain_name)
    scanned = 0
    for rule in chain.rules:
        scanned += 1
        kernel.costs_charge("helper_ipt_per_rule")
        if rule.ct_state is not None:
            return IPT_UNSUPPORTED, scanned
        if rule.match_set is not None:
            kernel.costs_charge("helper_ipset_lookup")
        if rule.matches(pkt.ip, skb, in_name, out_name, kernel.ipsets):
            rule.packets += 1
            if rule.target == "ACCEPT":
                return IPT_ACCEPT, scanned
            if rule.target == "DROP":
                return IPT_DROP, scanned
            return IPT_UNSUPPORTED, scanned
    return (IPT_ACCEPT if chain.policy == "ACCEPT" else IPT_DROP), scanned


def reference_evaluate(netfilter, chain_name, skb, in_name=None, out_name=None):
    """``Netfilter.evaluate`` as a per-rule loop; returns (verdict, scanned)."""
    kernel = netfilter._kernel
    kernel.costs_charge("nf_hook_overhead")
    chain = netfilter.chain(chain_name)
    ip = skb.pkt.ip
    if ip is None:
        netfilter.verdicts[chain_name][ACCEPT] += 1
        return ACCEPT, 0
    scanned = 0
    for rule in chain.rules:
        scanned += 1
        kernel.costs_charge("nf_rule_cost")
        if rule.match_set is not None:
            kernel.costs_charge("ipset_lookup")
        if rule.matches(ip, skb, in_name, out_name, kernel.ipsets):
            rule.packets += 1
            if rule.target == RETURN:
                break
            netfilter.verdicts[chain_name][rule.target] += 1
            return rule.target, scanned
    netfilter.verdicts[chain_name][chain.policy] += 1
    return chain.policy, scanned


# -------------------------------------------------------------- strategies

# A small address pool and few match fields per rule make prefix, ipset,
# port and interface matches common.
POOL = ["10.0.0.1", "10.0.0.2", "10.0.1.7", "172.16.0.5", "192.168.1.1", "0.0.0.0"]
pooled = st.sampled_from([IPv4Addr.parse(a).value for a in POOL])
addresses = pooled | st.integers(0, 0xFFFFFFFF)
lengths = st.sampled_from([0, 8, 16, 23, 30, 32]) | st.integers(0, 32)
prefixes = st.builds(lambda value, length: IPv4Prefix(IPv4Addr(value), length), addresses, lengths)
protos = st.sampled_from([IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP])
ports = st.sampled_from([53, 80, 443])
ifaces = st.sampled_from(["eth0", "eth1", "eth9"])
match_fields = st.one_of(
    st.tuples(st.just("src"), prefixes),
    st.tuples(st.just("dst"), prefixes),
    st.tuples(st.just("proto"), protos),
    st.tuples(st.just("sport"), ports),
    st.tuples(st.just("dport"), ports),
    st.tuples(st.just("in_iface"), ifaces),
    st.tuples(st.just("out_iface"), ifaces),
    st.tuples(st.just("match_set"), st.sampled_from(["ips", "nets", "ghost"])),
    st.tuples(st.just("set_dir"), st.sampled_from(["src", "dst"])),
    st.tuples(st.just("ct_state"), st.sampled_from(["NEW", "ESTABLISHED"])),
)
rule_specs = st.builds(
    lambda target, fields: {"target": target, **dict(fields)},
    st.sampled_from([ACCEPT, DROP, RETURN]),
    st.lists(match_fields, min_size=1, max_size=3),  # a /0 prefix matches all
)
chains = st.sampled_from(BUILTIN_CHAINS)
ipset_members = st.one_of(
    st.tuples(st.just("ips"), pooled, st.just(32)),
    st.tuples(st.just("nets"), pooled, lengths),
)

packets = st.fixed_dictionaries({
    "proto": protos,
    "src": addresses,
    "dst": addresses,
    "sport": ports,
    "dport": ports,
    # helper ifindexes: none, eth0, eth1, or no such device
    "in_ifindex": st.sampled_from([0, 2, 3, 999]),
    "out_ifindex": st.sampled_from([0, 2, 3, 999]),
    "in_name": st.sampled_from([None, "eth0", "eth1"]),
    "out_name": st.sampled_from([None, "eth0", "eth1"]),
    "ct_state": st.sampled_from([None, "NEW", "ESTABLISHED"]),
    "idle_ns": st.floats(0, 1e6, allow_nan=False),
})

step_kinds = {
    "-A": st.tuples(st.just("-A"), chains, rule_specs),
    "-I": st.tuples(st.just("-I"), chains, rule_specs, st.integers(0, 40)),
    "-D": st.tuples(st.just("-D"), chains, st.integers(0, 40)),
    "-F": st.tuples(st.just("-F"), st.one_of(st.none(), chains)),
    "-P": st.tuples(st.just("-P"), chains, st.sampled_from([ACCEPT, DROP])),
    "add": st.tuples(st.just("add"), ipset_members),
    "del": st.tuples(st.just("del"), ipset_members),
    "pkt": st.tuples(st.just("pkt"), packets),
}
# Appends and packets dominate, so chains grow between flushes.
steps = st.sampled_from(["-A"] * 4 + ["pkt"] * 3 + ["-I", "-D", "-F", "-P", "add", "del"]).flatmap(
    step_kinds.__getitem__
)


# ------------------------------------------------------------------ harness

def make_kernel(costs):
    kernel = Kernel("nf-scan", costs=costs)
    for name in ("eth0", "eth1"):  # ifindex 2 and 3
        kernel.add_physical(name)
    kernel.ipset_create("ips", "hash:ip")
    kernel.ipset_create("nets", "hash:net")
    return kernel


def apply_step(kernel, step):
    netfilter = kernel.netfilter
    op = step[0]
    if op == "-A":
        netfilter.append_rule(step[1], Rule(**step[2]))
    elif op == "-I":
        chain = netfilter.chain(step[1])
        netfilter.insert_rule(step[1], Rule(**step[2]), step[3] % (len(chain.rules) + 1))
    elif op == "-D":
        rules = netfilter.chain(step[1]).rules
        if rules:
            netfilter.delete_rule(step[1], rules[step[2] % len(rules)].handle)
    elif op == "-F":
        netfilter.flush(step[1])
    elif op == "-P":
        netfilter.set_policy(step[1], step[2])
    elif op == "add":
        kernel.ipset_add(*step[1])
    elif op == "del":
        kernel.ipset_del(*step[1])


def build_packet(spec):
    src, dst = IPv4Addr(spec["src"]), IPv4Addr(spec["dst"])
    if spec["proto"] == IPPROTO_TCP:
        return make_tcp(MAC1, MAC2, src, dst, sport=spec["sport"], dport=spec["dport"])
    if spec["proto"] == IPPROTO_UDP:
        return make_udp(MAC1, MAC2, src, dst, sport=spec["sport"], dport=spec["dport"])
    return Packet(
        eth=Ethernet(dst=MacAddr.parse(MAC2), src=MacAddr.parse(MAC1), ethertype=ETH_P_IP),
        ip=IPv4(src=src, dst=dst, proto=IPPROTO_ICMP),
        l4=ICMP(8),
    )


def idle(kernel, spec):
    """Advance the clock and CPU 0's busy time by a random amount, so the
    oracle starts from arbitrary clock states."""
    with kernel.cpus.on(0):
        kernel.charge_ns(spec["idle_ns"])


def observe(kernel, run):
    """Run one lookup on CPU 0; returns its result with the clock and
    busy-time deltas."""
    clock, busy = kernel.clock.now_ns, kernel.cpus.busy_ns[0]
    with kernel.cpus.on(0):
        result = run()
    return result, kernel.clock.now_ns - clock, kernel.cpus.busy_ns[0] - busy


def shared_ipt_lookup(env, args):
    """``bpf_ipt_lookup``; returns (IPT_*, rules scanned) like the reference,
    reading the count from the scan's counters."""
    counter = env.kernel.netfilter.rules_scanned[BUILTIN_CHAINS[args[0]]]
    before = counter[HELPER]
    return bpf_ipt_lookup(env, args), counter[HELPER] - before


def lookup_helper(kernel, chain_id, spec, frame, lookup, length=None):
    env = Env(kernel, redirect_verdict=4)
    ptr = Pointer(Region("pkt", bytearray(frame)), 0)
    length = len(frame) if length is None else length
    args = [chain_id, ptr, length, spec["in_ifindex"], spec["out_ifindex"]]
    return observe(kernel, lambda: lookup(env, args))


def lookup_slow(kernel, chain_id, spec, frame, evaluate):
    skb = SKBuff(pkt=Packet.from_bytes(frame))
    if spec["ct_state"] is not None:
        skb.conntrack = SimpleNamespace(state=spec["ct_state"])
    chain = BUILTIN_CHAINS[chain_id]
    return observe(kernel, lambda: evaluate(chain, skb, spec["in_name"], spec["out_name"]))


def state(kernel):
    netfilter = kernel.netfilter
    return (
        {name: [(r.handle, r.packets) for r in chain.rules] for name, chain in netfilter.chains.items()},
        {name: dict(verdicts) for name, verdicts in netfilter.verdicts.items()},
        kernel.clock.now_ns,
        list(kernel.cpus.busy_ns),
    )


class TestScanOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        costs=st.sampled_from([CostModel, container_cost_model]),
        script=st.lists(steps, min_size=20, max_size=80),
    )
    def test_matches_per_rule_reference(self, costs, script):
        new, ref = make_kernel(costs()), make_kernel(costs())
        for step in script:
            if step[0] != "pkt":
                apply_step(new, step)
                apply_step(ref, step)
                continue
            spec = step[1]
            frame = build_packet(spec).to_bytes()
            for chain_id in range(len(BUILTIN_CHAINS)):
                idle(new, spec)
                idle(ref, spec)
                assert lookup_helper(new, chain_id, spec, frame, shared_ipt_lookup) == lookup_helper(
                    ref, chain_id, spec, frame, reference_ipt_lookup
                )
                assert lookup_slow(new, chain_id, spec, frame, new.netfilter.evaluate) == lookup_slow(
                    ref, chain_id, spec, frame, lambda *a: reference_evaluate(ref.netfilter, *a)
                )
                assert state(new) == state(ref)


class TestEmptyChain:
    """An empty chain returns its policy without the index walk, and leaves
    the clock, the busy time and every counter as the walk leaves them."""

    @pytest.mark.parametrize("policy", [ACCEPT, DROP])
    @pytest.mark.parametrize("chain", BUILTIN_CHAINS)
    def test_matches_the_reference_and_the_scan(self, chain, policy):
        new, ref, scanned = (make_kernel(CostModel()) for __ in range(3))
        spec = {"proto": IPPROTO_TCP, "src": IPv4Addr.parse("10.0.0.1").value,
                "dst": IPv4Addr.parse("10.0.0.2").value, "sport": 80, "dport": 443,
                "in_name": "eth0", "out_name": None, "ct_state": None}
        frame = build_packet(spec).to_bytes()
        for kernel in (new, ref, scanned):
            kernel.netfilter.set_policy(chain, policy)
            # a rule appended and deleted leaves the chain empty at a new gen
            rule = kernel.netfilter.append_rule(chain, Rule(target=DROP, proto=IPPROTO_UDP))
            kernel.netfilter.delete_rule(chain, rule.handle)
        for __ in range(2):
            assert lookup_slow(new, BUILTIN_CHAINS.index(chain), spec, frame, new.netfilter.evaluate) == (
                (policy, 0), 50, 50.0
            ) == lookup_slow(ref, BUILTIN_CHAINS.index(chain), spec, frame,
                             lambda *a: reference_evaluate(ref.netfilter, *a))
            assert state(new) == state(ref)
            # the walk the empty chain skips, counted as evaluate counts it
            scanned.netfilter.scan(chain, "slow", (spec["src"], spec["dst"], IPPROTO_TCP),
                                   lambda: None, "eth0", None)
        for counters in ("compiles", "scans", "rules_scanned", "rules_tested"):
            assert getattr(new.netfilter, counters) == getattr(scanned.netfilter, counters), counters
        assert new.netfilter.scans[chain] == {"slow": 2}
        assert new.netfilter.rules_scanned[chain] == {"slow": 0}


# ----------------------------------------------------------- charge count

class TestOneCharge:
    def test_one_charge_per_scan(self, monkeypatch):
        """A 200-rule miss charges the base cost and the scan: two calls."""
        kernel = Kernel("nf-scan")
        for i in range(200):
            kernel.ipt_append("FORWARD", Rule(target=DROP, src=IPv4Prefix.parse(f"172.16.{i}.0/24")))
        frame = make_udp(MAC1, MAC2, "10.0.0.5", "10.0.9.9").to_bytes()
        calls = []
        charge = kernel.charge_ns
        monkeypatch.setattr(kernel, "charge_ns", lambda ns: (calls.append(ns), charge(ns)))
        ptr = Pointer(Region("pkt", bytearray(frame)), 0)
        assert bpf_ipt_lookup(Env(kernel, redirect_verdict=4), [1, ptr, len(frame), 0, 0]) == IPT_ACCEPT
        assert len(calls) <= 2
        calls.clear()
        assert kernel.netfilter.evaluate("FORWARD", SKBuff(pkt=Packet.from_bytes(frame))) == (ACCEPT, 200)
        assert len(calls) <= 2


# ---------------------------------------------------------------- counters

class TestScanCounters:
    def test_gateway_counters(self):
        topo = setup_gateway("linuxfp", num_rules=100, num_prefixes=4)
        dut = topo.dut
        expected = 0
        for k in range(64):
            # even frames come from blacklisted source k (rule k matches),
            # odd ones from an allowed source (all 100 rules scanned)
            src = blacklist_address(k) if k % 2 == 0 else "10.0.1.2"
            expected += k + 1 if k % 2 == 0 else 100
            frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, src, topo.flow_destination(k, 4), dport=7)
            topo.dut_in.nic.receive_from_wire(frame.to_bytes())

        scan = MetricsRegistry(dut).snapshot()["netfilter_scan"]["FORWARD"]
        assert scan["compiles"] == 1
        assert scan["scans"] == {"helper": 64}
        assert scan["rules_scanned"] == {"helper": expected}
        # the index hands each blacklisted frame its one rule, and no other
        # frame any; the header reader serves every frame
        assert scan["rules_tested"] == {"helper": 32}
        assert scan["helper_parses"] == 0
        prom = MetricsRegistry(dut).to_prometheus()
        assert 'linuxfp_netfilter_compiles_total{chain="FORWARD"} 1' in prom
        assert f'linuxfp_netfilter_rules_scanned_total{{chain="FORWARD",path="helper"}} {expected}' in prom
        assert 'linuxfp_netfilter_rules_tested_total{chain="FORWARD",path="helper"} 32' in prom
        assert 'linuxfp_netfilter_helper_parses_total{chain="FORWARD"} 0' in prom

        iptables(dut, "-A FORWARD -s 192.0.2.1/32 -j DROP")
        assert dut.netfilter.compiles["FORWARD"] == 1  # the mutator compiles nothing
        topo.dut_in.nic.receive_from_wire(
            make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", topo.flow_destination(0, 4), dport=7).to_bytes()
        )
        assert dut.netfilter.compiles["FORWARD"] == 2
        assert dut.netfilter.rules_scanned["FORWARD"]["helper"] == expected + 101


# ------------------------------------------------------------- odd frames

def patched(frame, offset, data, ihl=20):
    """``frame`` with ``data`` written at ``offset`` and the IPv4 header
    checksum recomputed over ``ihl`` bytes."""
    raw = bytearray(frame)
    raw[offset:offset + len(data)] = data
    raw[24:26] = b"\x00\x00"
    raw[24:26] = internet_checksum(raw[14:14 + ihl]).to_bytes(2, "big")
    return bytes(raw)


def ip_options_frame():
    """IHL 6: a 4-byte options word (end of list) after the fixed header.
    Zero options leave the fixed header's own checksum valid too."""
    udp = make_udp(MAC1, MAC2, "10.0.0.1", "10.0.9.9", dport=53, payload=b"q" * 8).to_bytes()
    total = len(udp) - 14 + 4
    raw = udp[:14] + bytes([0x46]) + udp[15:16] + total.to_bytes(2, "big") + udp[18:34] + bytes(4) + udp[34:]
    return patched(raw, 14, b"\x46", ihl=24)


def cut_l4(proto, flags_frag=b"\x00\x00"):
    """A frame whose UDP or ICMP header is cut to 7 bytes."""
    raw = make_udp(MAC1, MAC2, "10.0.0.1", "10.0.9.9", dport=53).to_bytes()[:14 + 20 + 7]
    raw = patched(raw, 16, (20 + 7).to_bytes(2, "big"))
    raw = patched(raw, 20, flags_frag)
    return patched(raw, 23, bytes([proto]))


UDP53 = make_udp(MAC1, MAC2, "10.0.0.1", "10.0.9.9", dport=53, payload=b"q" * 8).to_bytes()
TCP80 = make_tcp(MAC1, MAC2, "10.0.0.1", "10.0.9.9", dport=80).to_bytes()

# name -> (frame, pkt_len the program passes, whether ipv4_fields reads it)
ODD_FRAMES = {
    "vlan-tagged": (make_udp(MAC1, MAC2, "10.0.0.1", "10.0.9.9", dport=53, vlan=7).to_bytes(), None, False),
    "ihl-6-options": (ip_options_frame(), None, False),
    "bad-checksum": (UDP53[:24] + bytes([UDP53[24] ^ 0xFF]) + UDP53[25:], None, False),
    "all-zero-header": (UDP53[:14] + bytes(20) + UDP53[34:], None, False),
    "total-below-20": (patched(UDP53, 16, (12).to_bytes(2, "big")), None, False),
    "total-past-frame": (patched(UDP53, 16, (len(UDP53)).to_bytes(2, "big")), None, False),
    "ethernet-padding": (UDP53 + bytes(18), None, True),
    "mf-only-fragment": (patched(UDP53, 20, b"\x20\x00"), None, True),
    "mf-only-fragment-udp-cut-to-7": (cut_l4(IPPROTO_UDP, b"\x20\x00"), None, False),
    "later-fragment": (patched(UDP53, 20, b"\x00\x02"), None, True),
    "later-fragment-total-below-20": (patched(patched(UDP53, 20, b"\x00\x02"), 16, b"\x00\x0c"), None, False),
    "udp-cut-to-7": (cut_l4(IPPROTO_UDP), None, False),
    "icmp-cut-to-7": (cut_l4(IPPROTO_ICMP), None, False),
    "tcp-offset-4": (patched(TCP80, 14 + 20 + 12, b"\x40"), None, False),
    "tcp-offset-past-frame": (patched(TCP80, 14 + 20 + 12, b"\x60"), None, False),
    "arp": (make_arp_request(MAC1, "10.0.0.1", "10.0.9.9").to_bytes(), None, False),
    "non-ip-ethertype": (UDP53[:12] + b"\x86\xdd" + UDP53[14:], None, False),
    "len-past-region": (UDP53, len(UDP53) + 1, True),
}


class TestOddFrames:
    """Frames ``ipv4_fields`` must decline, and plain ones beside them.

    Each goes through ``bpf_ipt_lookup`` and the reference, which parses
    every frame with ``Packet.from_bytes``, against one ruleset that
    includes a port rule; every observable must agree.
    """

    RULES = [
        {"target": DROP, "src": IPv4Prefix.parse("192.0.2.1/32")},
        {"target": ACCEPT, "proto": IPPROTO_UDP, "dport": 53},
        {"target": DROP, "src": IPv4Prefix.parse("10.0.0.0/8"), "proto": IPPROTO_TCP},
        {"target": DROP, "dst": IPv4Prefix.parse("10.0.9.0/24")},
    ]
    SPEC = {"in_ifindex": 2, "out_ifindex": 3, "idle_ns": 0.0}

    @pytest.mark.parametrize("name", sorted(ODD_FRAMES))
    def test_agrees_with_reference(self, name):
        frame, length, read = ODD_FRAMES[name]
        assert (ipv4_fields(frame) is not None) == read
        new, ref = make_kernel(CostModel()), make_kernel(CostModel())
        for kernel in (new, ref):
            for spec in self.RULES:
                kernel.netfilter.append_rule("FORWARD", Rule(**spec))
            idle(kernel, self.SPEC)
        assert lookup_helper(new, 1, self.SPEC, frame, shared_ipt_lookup, length) == lookup_helper(
            ref, 1, self.SPEC, frame, reference_ipt_lookup, length
        )
        assert state(new) == state(ref)


class TestTotalLength:
    """Linux's ``ip_rcv`` drops a frame whose IPv4 total length is below its
    header length or past the end of the frame, and trims the body to the
    total length."""

    BELOW_HEADER = ODD_FRAMES["total-below-20"][0]
    PAST_FRAME = ODD_FRAMES["total-past-frame"][0]

    def test_total_below_the_header_does_not_parse(self):
        with pytest.raises(PacketError, match="total length"):
            Packet.from_bytes(self.BELOW_HEADER)

    def test_total_past_the_frame_does_not_parse(self):
        with pytest.raises(PacketError, match="total length"):
            Packet.from_bytes(self.PAST_FRAME)

    def test_helper_leaves_it_to_the_slow_path(self):
        kernel = make_kernel(CostModel())
        for spec in TestOddFrames.RULES:
            kernel.netfilter.append_rule("FORWARD", Rule(**spec))
        for frame in (self.BELOW_HEADER, self.PAST_FRAME):
            ptr = Pointer(Region("pkt", bytearray(frame)), 0)
            args = [1, ptr, len(frame), 2, 3]
            assert bpf_ipt_lookup(Env(kernel, redirect_verdict=4), args) == IPT_UNSUPPORTED

    def test_slow_path_drops_it_as_malformed(self):
        topo = LineTopology()
        topo.prewarm_neighbors()
        delivered = []
        topo.sink_eth.nic.attach(lambda frame, queue: delivered.append(frame))
        topo.dut.ipt_policy(FORWARD, DROP)
        topo.dut.ipt_append(FORWARD, Rule(target=ACCEPT, proto=IPPROTO_UDP, dport=53))
        udp = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.0.2.2", dport=53, payload=b"q" * 8)
        frame = udp.to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        assert len(delivered) == 1  # the port rule accepts a well-formed frame
        for total in (12, len(frame)):  # below the header, past the frame
            topo.dut_in.nic.receive_from_wire(patched(frame, 16, total.to_bytes(2, "big")))
        assert len(delivered) == 1
        assert topo.dut.stack.drops["malformed"] == 2

    def test_options_and_padding_leave_the_exact_payload(self):
        frame = ip_options_frame() + b"PADDING" + bytes(11)
        assert Packet.from_bytes(frame).payload == b"q" * 8
