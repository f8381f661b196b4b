"""Tests for the Polycube and VPP baseline platforms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measure import LineTopology, Pktgen
from repro.measure.scenarios import setup_gateway, setup_router, measure_throughput
from repro.netsim.packet import make_udp
from repro.platforms import Polycube, Vpp
from repro.platforms.polycube.classifier import (
    ACCEPT,
    BitvectorClassifier,
    ClassifierRule,
    DROP,
)
from repro.platforms.polycube.platform import PcnError
from repro.platforms.vpp.platform import VppError
from repro.netsim.addresses import IPv4Addr, IPv4Prefix


class TestBitvectorClassifier:
    def rules(self):
        return [
            ClassifierRule(action=DROP, src=IPv4Prefix.parse("172.16.0.0/24")),
            ClassifierRule(action=ACCEPT, src=IPv4Prefix.parse("172.16.0.0/16"), proto=6),
            ClassifierRule(action=DROP, proto=17, dport=53),
        ]

    def test_first_match_semantics(self):
        classifier = BitvectorClassifier(self.rules())
        # both rule 0 (drop) and rule 1 (accept) match; rule 0 is first
        action, index = classifier.classify_fields(
            IPv4Prefix.parse("172.16.0.5/32").address.value, 0, 6, 80
        )
        assert action == DROP and index == 0

    def test_later_rule_matches(self):
        classifier = BitvectorClassifier(self.rules())
        action, index = classifier.classify_fields(
            IPv4Prefix.parse("172.16.9.5/32").address.value, 0, 6, 80
        )
        assert action == ACCEPT and index == 1

    def test_port_dimension(self):
        classifier = BitvectorClassifier(self.rules())
        action, index = classifier.classify_fields(
            IPv4Prefix.parse("10.0.0.1/32").address.value, 0, 17, 53
        )
        assert action == DROP and index == 2

    def test_default_action_on_no_match(self):
        classifier = BitvectorClassifier(self.rules())
        action, index = classifier.classify_fields(
            IPv4Prefix.parse("10.0.0.1/32").address.value, 0, 6, 80
        )
        assert action == ACCEPT and index is None

    def test_empty_ruleset(self):
        classifier = BitvectorClassifier([])
        assert classifier.classify_fields(1, 2, 6, 80) == (ACCEPT, None)

    def test_classify_frame(self):
        classifier = BitvectorClassifier(self.rules())
        blocked = make_udp("02:00:00:00:00:01", "02:00:00:00:00:02", "172.16.0.9", "10.0.0.1").to_bytes()
        allowed = make_udp("02:00:00:00:00:01", "02:00:00:00:00:02", "10.1.0.9", "10.0.0.1").to_bytes()
        assert classifier.classify_frame(blocked) == DROP
        assert classifier.classify_frame(allowed) == ACCEPT

    def test_matches_linear_semantics_exhaustively(self):
        """The bitvector result must equal a naive first-match scan."""
        rules = self.rules()
        classifier = BitvectorClassifier(rules)
        candidates = [
            ("172.16.0.1", 6, 80),
            ("172.16.0.1", 17, 53),
            ("172.16.5.1", 6, 22),
            ("172.16.5.1", 17, 53),
            ("10.0.0.1", 17, 53),
            ("10.0.0.1", 6, 443),
        ]
        for src_text, proto, dport in candidates:
            src = IPv4Prefix.parse(src_text + "/32").address.value
            expected = ACCEPT
            for rule in rules:
                if rule.src is not None and not rule.src.contains(src_text):
                    continue
                if rule.proto is not None and rule.proto != proto:
                    continue
                if rule.dport is not None and rule.dport != dport:
                    continue
                expected = rule.action
                break
            assert classifier.classify_fields(src, 0, proto, dport)[0] == expected


def first_match(rules, src, dst, proto, dport):
    """The per-rule loop ``classify_fields`` must equal."""
    for i, rule in enumerate(rules):
        if rule.src is not None and not rule.src.contains(IPv4Addr(src)):
            continue
        if rule.dst is not None and not rule.dst.contains(IPv4Addr(dst)):
            continue
        if rule.proto is not None and rule.proto != proto:
            continue
        if rule.dport is not None and rule.dport != dport:
            continue
        return rule.action, i
    return ACCEPT, None


# a small address pool makes prefix matches common
addresses = st.sampled_from([0x0A000001, 0x0A000102, 0xAC100005, 0xC0A80101, 0]) | st.integers(0, 0xFFFFFFFF)
prefixes = st.none() | st.builds(lambda a, n: IPv4Prefix(IPv4Addr(a), n), addresses, st.integers(0, 32))
protos = st.sampled_from([1, 6, 17])
dports = st.sampled_from([53, 80, 443])
classifier_rules = st.builds(
    ClassifierRule,
    action=st.sampled_from([ACCEPT, DROP]),
    src=prefixes,
    dst=prefixes,
    proto=st.none() | protos,
    dport=st.none() | dports,
)


class TestBitvectorProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        rules=st.lists(classifier_rules, max_size=12),
        packets=st.lists(st.tuples(addresses, addresses, protos, st.none() | dports), min_size=1, max_size=8),
    )
    def test_equals_per_rule_first_match(self, rules, packets):
        classifier = BitvectorClassifier(rules)
        for src, dst, proto, dport in packets:
            assert classifier.classify_fields(src, dst, proto, dport) == first_match(rules, src, dst, proto, dport)


class TestPolycube:
    def test_router_forwards(self):
        topo = setup_router("polycube")
        result = measure_throughput(topo, packets=500)
        assert result.delivery_ratio == 1.0

    def test_router_uses_own_state_not_kernel_fib(self):
        """The transparency gap: kernel routes do not reach Polycube."""
        topo = setup_router("polycube", num_prefixes=1)
        # a kernel route that Polycube's control plane never saw
        from repro.tools import ip

        topo.dut.sysctl_set("net.ipv4.ip_forward", "1")
        ip(topo.dut, "route add 10.200.0.0/16 via 10.0.2.2")
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.200.0.1").to_bytes()
        delivered = []
        topo.sink_eth.nic.attach(lambda f, q: delivered.append(f))
        topo.dut_in.nic.receive_from_wire(frame)
        # Polycube's cube missed (no map entry) -> fell back to the kernel
        # slow path, which CAN route it; the point is the cube didn't.
        assert topo.polycube.rib.lookup(
            __import__("repro.ebpf.maps", fromlist=["LpmTrieMap"]).LpmTrieMap.make_key(
                32, __import__("repro.netsim.addresses", fromlist=["IPv4Addr"]).IPv4Addr.parse("10.200.0.1")
            )
        ) is None
        assert len(delivered) == 1  # kernel slow path forwarded

    def test_firewall_blocks_blacklisted(self):
        topo = setup_gateway("polycube", num_rules=10)
        from repro.measure.scenarios import blacklist_address

        blocked = make_udp(topo.src_eth.mac, topo.dut_in.mac, blacklist_address(3), "10.100.0.1").to_bytes()
        allowed = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.1").to_bytes()
        delivered = []
        topo.sink_eth.nic.attach(lambda f, q: delivered.append(f))
        topo.dut_in.nic.receive_from_wire(blocked)
        topo.dut_in.nic.receive_from_wire(allowed)
        assert len(delivered) == 1

    def test_firewall_chains_to_router_via_tail_call(self):
        topo = setup_gateway("polycube", num_rules=5)
        assert topo.polycube.jmp.get_prog(0) is not None  # firewall slot
        assert topo.polycube.jmp.get_prog(1) is not None  # router slot

    def test_classification_flat_in_rule_count(self):
        few = setup_gateway("polycube", num_rules=10)
        many = setup_gateway("polycube", num_rules=200)
        cost_few = measure_throughput(few, packets=500).per_packet_ns
        cost_many = measure_throughput(many, packets=500).per_packet_ns
        assert cost_many - cost_few < 30  # ~0.06 ns/rule, not 2 ns/rule

    def test_bad_cli_rejected(self):
        topo = LineTopology()
        pcn = Polycube(topo.dut)
        with pytest.raises(PcnError):
            pcn.pcn_router("frobnicate")
        with pytest.raises(PcnError):
            pcn.pcn_iptables("-A INPUT -j DROP")


class TestVpp:
    def test_router_forwards(self):
        topo = setup_router("vpp")
        result = measure_throughput(topo, packets=500)
        assert result.delivery_ratio == 1.0

    def test_kernel_no_longer_sees_traffic(self):
        topo = setup_router("vpp")
        before = topo.dut.stack.forwarded
        generator = Pktgen(topo)
        generator.throughput(packets=200)
        assert topo.dut.stack.forwarded == before  # bypassed entirely

    def test_faster_than_fast_paths(self):
        """Vector processing beats per-packet processing (Fig 5)."""
        vpp_cost = measure_throughput(setup_router("vpp"), packets=500).per_packet_ns
        linuxfp_cost = measure_throughput(setup_router("linuxfp"), packets=500).per_packet_ns
        assert vpp_cost < linuxfp_cost

    def test_acl_drops(self):
        topo = setup_gateway("vpp", num_rules=10)
        from repro.measure.scenarios import blacklist_address

        blocked = make_udp(topo.src_eth.mac, topo.dut_in.mac, blacklist_address(0), "10.100.0.1").to_bytes()
        delivered = []
        topo.sink_eth.nic.attach(lambda f, q: delivered.append(f))
        topo.dut_in.nic.receive_from_wire(blocked)
        assert delivered == [] and topo.vpp.dropped >= 1

    def test_ttl_expiry_dropped(self):
        topo = setup_router("vpp")
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.1", ttl=1).to_bytes()
        delivered = []
        topo.sink_eth.nic.attach(lambda f, q: delivered.append(f))
        topo.dut_in.nic.receive_from_wire(frame)
        assert delivered == []

    def test_rewrite_correct(self):
        topo = setup_router("vpp")
        from repro.netsim.packet import Packet

        out = []
        topo.sink_eth.nic.attach(lambda f, q: out.append(Packet.from_bytes(f)))
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.1", ttl=9).to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        pkt = out[0]
        assert pkt.ip.ttl == 8
        assert pkt.eth.src == topo.dut_out.mac
        assert pkt.eth.dst == topo.sink_eth.mac

    def test_interface_down_drops(self):
        topo = setup_router("vpp")
        topo.vpp.vppctl("set interface state eth1 down")
        delivered = []
        topo.sink_eth.nic.attach(lambda f, q: delivered.append(f))
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.1").to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        assert delivered == []

    def test_bad_cli_rejected(self):
        topo = LineTopology()
        vpp = Vpp(topo.dut)
        with pytest.raises(VppError):
            vpp.vppctl("make coffee")
        with pytest.raises(VppError):
            vpp.take_over("lo")
