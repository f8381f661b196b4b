"""Property-based tests of the paper's central correctness invariant:

    "every packet must be able to be processed either by the LinuxFP fast
     path or by the kernel with the identical result under all
     circumstances" (§IV-B2).

Hypothesis generates random rule sets, routing tables, and packets; the
accelerated DUT and the plain-Linux DUT must agree on the outcome of every
single packet.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Controller
from repro.kernel.netfilter import Rule
from repro.measure.topology import LineTopology
from repro.netsim.addresses import IPv4Addr, IPv4Prefix
from repro.netsim.packet import IPPROTO_TCP, IPPROTO_UDP, make_tcp, make_udp

# strategies -----------------------------------------------------------------

rule_strategy = st.builds(
    Rule,
    target=st.sampled_from(["ACCEPT", "DROP"]),
    src=st.one_of(
        st.none(),
        st.builds(
            IPv4Prefix,
            st.builds(IPv4Addr, st.integers(min_value=0x0A000000, max_value=0x0A0001FF)),
            st.sampled_from([16, 24, 28, 32]),
        ),
    ),
    proto=st.one_of(st.none(), st.sampled_from([IPPROTO_TCP, IPPROTO_UDP])),
    dport=st.one_of(st.none(), st.integers(min_value=1, max_value=100)),
)

packet_strategy = st.tuples(
    st.integers(min_value=0x0A000000, max_value=0x0A0001FF),  # src in 10.0.0.0/23
    st.integers(min_value=0, max_value=99),                   # flow -> dst prefix index
    st.sampled_from(["udp", "tcp"]),
    st.integers(min_value=1, max_value=100),                  # dport
    st.integers(min_value=2, max_value=64),                   # ttl
)


def build_dut(rules, accelerated):
    topo = LineTopology()
    topo.install_prefixes(8)
    for rule in rules:
        topo.dut.ipt_append("FORWARD", rule)
    if accelerated:
        Controller(topo.dut, hook="xdp").start()
    topo.prewarm_neighbors()
    outcomes = []
    topo.sink_eth.nic.attach(lambda frame, q: outcomes.append(frame))
    return topo, outcomes


def drive(topo, outcomes, packets):
    """Returns the delivery outcome (True/False) per packet, in order."""
    results = []
    for src_value, flow, proto, dport, ttl in packets:
        src = str(IPv4Addr(src_value))
        dst = topo.flow_destination(flow, 8)
        maker = make_udp if proto == "udp" else make_tcp
        frame = maker(topo.src_eth.mac, topo.dut_in.mac, src, dst, sport=1234, dport=dport, ttl=ttl).to_bytes()
        before = len(outcomes)
        topo.dut_in.nic.receive_from_wire(frame)
        results.append(len(outcomes) > before)
    return results


class TestFastSlowEquivalence:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        rules=st.lists(rule_strategy, max_size=6),
        packets=st.lists(packet_strategy, min_size=1, max_size=8),
    )
    def test_filter_and_forward_equivalence(self, rules, packets):
        slow_topo, slow_out = build_dut(rules, accelerated=False)
        fast_topo, fast_out = build_dut(rules, accelerated=True)
        assert drive(slow_topo, slow_out, packets) == drive(fast_topo, fast_out, packets)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(packets=st.lists(packet_strategy, min_size=1, max_size=8))
    def test_forwarded_packets_identical_bytes(self, packets):
        """Not just the same verdicts: the same rewritten frames."""
        slow_topo, slow_out = build_dut([], accelerated=False)
        fast_topo, fast_out = build_dut([], accelerated=True)
        drive(slow_topo, slow_out, packets)
        drive(fast_topo, fast_out, packets)
        # MACs differ between topologies (unique per kernel); compare the
        # IP layer onward, which must be byte-identical.
        assert [f[14:] for f in slow_out] == [f[14:] for f in fast_out]

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        entries=st.lists(st.integers(min_value=0x0A000000, max_value=0x0A0001FF), min_size=1, max_size=20),
        packets=st.lists(packet_strategy, min_size=1, max_size=6),
    )
    def test_ipset_equivalence(self, entries, packets):
        def setup(accelerated):
            topo = LineTopology()
            topo.install_prefixes(8)
            topo.dut.ipset_create("bl", "hash:ip")
            for value in entries:
                try:
                    topo.dut.ipset_add("bl", IPv4Addr(value))
                except Exception:
                    pass  # duplicates are fine
            topo.dut.ipt_append("FORWARD", Rule(target="DROP", match_set="bl", set_dir="src"))
            if accelerated:
                Controller(topo.dut, hook="xdp").start()
            topo.prewarm_neighbors()
            outcomes = []
            topo.sink_eth.nic.attach(lambda frame, q: outcomes.append(frame))
            return topo, outcomes

        slow_topo, slow_out = setup(False)
        fast_topo, fast_out = setup(True)
        assert drive(slow_topo, slow_out, packets) == drive(fast_topo, fast_out, packets)


# churn strategies ------------------------------------------------------------
#
# Operations interleave packets with live configuration mutations, applied
# to BOTH the accelerated and the plain DUT. The invariant is the same as
# above — identical per-packet outcomes and identical forwarded bytes — but
# now it must hold *across* mutations.

churn_op = st.one_of(
    st.tuples(st.just("pkt"), packet_strategy),
    st.tuples(st.just("route_shadow"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("route_unshadow"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("rule_add"), st.integers(min_value=1, max_value=100)),
    st.tuples(st.just("rule_del"), st.just(0)),
    st.tuples(st.just("neigh_del"), st.just(0)),
    st.tuples(st.just("neigh_add"), st.just(0)),
    st.tuples(st.just("age"), st.sampled_from([1, 301, 4000])),  # seconds
)


def _apply_config_op(topo, handles, op, arg):
    """Apply one mutation through the standard kernel APIs; idempotent-safe."""
    kernel = topo.dut
    if op == "route_shadow":
        # a more-specific /24 hijacking prefix `arg` back toward the source
        try:
            kernel.route_add(f"10.{100 + arg}.0.0/24", via="10.0.1.2")
        except Exception:
            pass  # already shadowed: same state on both DUTs
    elif op == "route_unshadow":
        try:
            kernel.route_del(f"10.{100 + arg}.0.0/24")
        except Exception:
            pass
    elif op == "rule_add":
        handles.append(kernel.ipt_append("FORWARD", Rule(target="DROP", dport=arg)).handle)
    elif op == "rule_del":
        if handles:
            kernel.ipt_delete("FORWARD", handles.pop())
    elif op == "neigh_del":
        kernel.neigh_del("eth1", "10.0.2.2")
    elif op == "neigh_add":
        kernel.neigh_add("eth1", "10.0.2.2", topo.sink_eth.mac)
    elif op == "age":
        # both topologies share one clock per topology; advance and run the
        # timers so FDB ageing / conntrack expiry fire
        topo.clock.advance(arg * 1_000_000_000)
        kernel.run_housekeeping()


def _ip_payloads(frames):
    """IPv4 payloads only: ARP requests triggered by neigh churn embed the
    per-topology sender MAC in their payload and must not be compared."""
    return [f[14:] for f in frames if f[12:14] == b"\x08\x00"]


class TestChurnEquivalence:
    """Fast/slow agreement while the configuration mutates mid-stream."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(churn_op, min_size=1, max_size=14))
    def test_equivalence_under_churn(self, ops):
        slow_topo, slow_out = build_dut([], accelerated=False)
        fast_topo, fast_out = build_dut([], accelerated=True)
        slow_handles, fast_handles = [], []

        for op, arg in ops:
            if op == "pkt":
                assert drive(slow_topo, slow_out, [arg]) == drive(fast_topo, fast_out, [arg])
            else:
                _apply_config_op(slow_topo, slow_handles, op, arg)
                _apply_config_op(fast_topo, fast_handles, op, arg)
        # not just verdicts: every IPv4 frame that reached the sink,
        # byte-identical from the IP layer. MACs legitimately differ between
        # topologies, so skip the Ethernet header and exclude ARP frames
        # (their *payload* embeds the per-topology sender MAC).
        assert _ip_payloads(slow_out) == _ip_payloads(fast_out)
