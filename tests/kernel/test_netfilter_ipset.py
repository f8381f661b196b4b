"""Tests for netfilter (iptables) and ipset."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel import Kernel
from repro.kernel.ipset import IpSet, IpsetError, IpsetRegistry
from repro.kernel.netfilter import ACCEPT, DROP, FORWARD, NetfilterError, RETURN, Rule
from repro.netsim.addresses import IPv4Addr, IPv4Prefix, MacAddr
from repro.netsim.packet import IPPROTO_TCP, IPPROTO_UDP, make_tcp, make_udp
from repro.netsim.skbuff import SKBuff

MAC1 = MacAddr.parse("02:00:00:00:00:01")
MAC2 = MacAddr.parse("02:00:00:00:00:02")


def udp_skb(src="10.0.0.1", dst="10.0.1.1", sport=100, dport=200):
    return SKBuff(pkt=make_udp(MAC1, MAC2, src, dst, sport=sport, dport=dport))


def tcp_skb(src="10.0.0.1", dst="10.0.1.1", sport=100, dport=80):
    return SKBuff(pkt=make_tcp(MAC1, MAC2, src, dst, sport=sport, dport=dport))


@pytest.fixture
def kernel():
    return Kernel("nf-test")


class TestRuleMatching:
    def test_src_prefix(self, kernel):
        rule = Rule(target=DROP, src=IPv4Prefix.parse("10.0.0.0/24"))
        assert rule.matches(udp_skb().pkt.ip, udp_skb(), None, None, kernel.ipsets)
        assert not rule.matches(udp_skb(src="10.9.0.1").pkt.ip, udp_skb(src="10.9.0.1"), None, None, kernel.ipsets)

    def test_dst_prefix(self, kernel):
        rule = Rule(target=DROP, dst=IPv4Prefix.parse("10.0.1.0/24"))
        skb = udp_skb()
        assert rule.matches(skb.pkt.ip, skb, None, None, kernel.ipsets)

    def test_proto(self, kernel):
        rule = Rule(target=DROP, proto=IPPROTO_TCP)
        skb = tcp_skb()
        assert rule.matches(skb.pkt.ip, skb, None, None, kernel.ipsets)
        skb = udp_skb()
        assert not rule.matches(skb.pkt.ip, skb, None, None, kernel.ipsets)

    def test_ports(self, kernel):
        rule = Rule(target=DROP, dport=80)
        skb = tcp_skb(dport=80)
        assert rule.matches(skb.pkt.ip, skb, None, None, kernel.ipsets)
        skb = tcp_skb(dport=443)
        assert not rule.matches(skb.pkt.ip, skb, None, None, kernel.ipsets)

    def test_port_match_requires_l4(self, kernel):
        from repro.netsim.packet import ICMP, IPv4, Ethernet, Packet

        rule = Rule(target=DROP, dport=80)
        pkt = Packet(
            eth=Ethernet(MAC2, MAC1, 0x0800),
            ip=IPv4(src=udp_skb().pkt.ip.src, dst=udp_skb().pkt.ip.dst, proto=1),
            l4=ICMP(8),
        )
        skb = SKBuff(pkt=pkt)
        assert not rule.matches(pkt.ip, skb, None, None, kernel.ipsets)

    def test_interfaces(self, kernel):
        rule = Rule(target=DROP, in_iface="eth0", out_iface="eth1")
        skb = udp_skb()
        assert rule.matches(skb.pkt.ip, skb, "eth0", "eth1", kernel.ipsets)
        assert not rule.matches(skb.pkt.ip, skb, "eth2", "eth1", kernel.ipsets)

    def test_ipset_match(self, kernel):
        kernel.ipset_create("bad", "hash:ip")
        kernel.ipset_add("bad", "10.0.0.1")
        rule = Rule(target=DROP, match_set="bad", set_dir="src")
        skb = udp_skb(src="10.0.0.1")
        assert rule.matches(skb.pkt.ip, skb, None, None, kernel.ipsets)
        skb = udp_skb(src="10.0.0.2")
        assert not rule.matches(skb.pkt.ip, skb, None, None, kernel.ipsets)

    def test_missing_ipset_never_matches(self, kernel):
        rule = Rule(target=DROP, match_set="ghost")
        skb = udp_skb()
        assert not rule.matches(skb.pkt.ip, skb, None, None, kernel.ipsets)

    def test_bad_target_rejected(self):
        with pytest.raises(NetfilterError):
            Rule(target="REJECTED")

    def test_bad_set_dir_rejected(self):
        with pytest.raises(NetfilterError):
            Rule(target=DROP, set_dir="both")


class TestChainEvaluation:
    def test_first_match_wins(self, kernel):
        kernel.netfilter.append_rule(FORWARD, Rule(target=ACCEPT, src=IPv4Prefix.parse("10.0.0.0/24")))
        kernel.netfilter.append_rule(FORWARD, Rule(target=DROP))
        verdict, scanned = kernel.netfilter.evaluate(FORWARD, udp_skb())
        assert verdict == ACCEPT and scanned == 1

    def test_policy_when_no_match(self, kernel):
        kernel.netfilter.set_policy(FORWARD, DROP)
        verdict, __ = kernel.netfilter.evaluate(FORWARD, udp_skb())
        assert verdict == DROP

    def test_linear_scan_counts_rules(self, kernel):
        for i in range(100):
            kernel.netfilter.append_rule(FORWARD, Rule(target=DROP, src=IPv4Prefix.parse(f"172.16.{i}.0/24")))
        verdict, scanned = kernel.netfilter.evaluate(FORWARD, udp_skb())
        assert verdict == ACCEPT and scanned == 100

    def test_linear_scan_charges_per_rule_cost(self, kernel):
        """Fig 8's premise: evaluation cost grows linearly in rule count."""
        for i in range(100):
            kernel.netfilter.append_rule(FORWARD, Rule(target=DROP, src=IPv4Prefix.parse(f"172.16.{i}.0/24")))
        t0 = kernel.clock.now_ns
        kernel.netfilter.evaluate(FORWARD, udp_skb())
        long_cost = kernel.clock.now_ns - t0
        kernel.netfilter.flush(FORWARD)
        t0 = kernel.clock.now_ns
        kernel.netfilter.evaluate(FORWARD, udp_skb())
        short_cost = kernel.clock.now_ns - t0
        assert long_cost - short_cost == pytest.approx(100 * kernel.costs.nf_rule_cost, abs=2)

    def test_return_falls_through_to_policy(self, kernel):
        kernel.netfilter.append_rule(FORWARD, Rule(target=RETURN, src=IPv4Prefix.parse("10.0.0.0/24")))
        kernel.netfilter.append_rule(FORWARD, Rule(target=DROP))
        kernel.netfilter.set_policy(FORWARD, ACCEPT)
        verdict, __ = kernel.netfilter.evaluate(FORWARD, udp_skb())
        assert verdict == ACCEPT

    def test_rule_packet_counters(self, kernel):
        rule = kernel.netfilter.append_rule(FORWARD, Rule(target=DROP, src=IPv4Prefix.parse("10.0.0.0/24")))
        kernel.netfilter.evaluate(FORWARD, udp_skb())
        kernel.netfilter.evaluate(FORWARD, udp_skb())
        assert rule.packets == 2

    def test_insert_at_head(self, kernel):
        kernel.netfilter.append_rule(FORWARD, Rule(target=ACCEPT))
        kernel.netfilter.insert_rule(FORWARD, Rule(target=DROP))
        verdict, __ = kernel.netfilter.evaluate(FORWARD, udp_skb())
        assert verdict == DROP

    def test_delete_by_handle(self, kernel):
        rule = kernel.netfilter.append_rule(FORWARD, Rule(target=DROP))
        kernel.netfilter.delete_rule(FORWARD, rule.handle)
        assert kernel.netfilter.rule_count(FORWARD) == 0
        with pytest.raises(NetfilterError):
            kernel.netfilter.delete_rule(FORWARD, rule.handle)

    def test_non_ip_accepted_unscanned(self, kernel):
        from repro.netsim.packet import make_arp_request

        kernel.netfilter.append_rule(FORWARD, Rule(target=DROP))
        skb = SKBuff(pkt=make_arp_request(MAC1, "10.0.0.1", "10.0.0.2"))
        verdict, scanned = kernel.netfilter.evaluate(FORWARD, skb)
        assert verdict == ACCEPT and scanned == 0

    def test_unknown_chain_rejected(self, kernel):
        with pytest.raises(NetfilterError):
            kernel.netfilter.evaluate("PREROUTING", udp_skb())


class TestIpset:
    def test_hash_ip_membership(self):
        s = IpSet("bl", "hash:ip")
        s.add("10.0.0.1")
        assert s.test("10.0.0.1") and not s.test("10.0.0.2")

    def test_hash_ip_rejects_prefix(self):
        with pytest.raises(IpsetError):
            IpSet("bl", "hash:ip").add("10.0.0.0", prefixlen=24)

    def test_hash_net_membership(self):
        s = IpSet("nets", "hash:net")
        s.add("10.1.0.0", prefixlen=16)
        s.add("192.168.3.0", prefixlen=24)
        assert s.test("10.1.200.5")
        assert s.test("192.168.3.7")
        assert not s.test("192.168.4.7")

    def test_remove(self):
        s = IpSet("bl", "hash:ip")
        s.add("10.0.0.1")
        s.remove("10.0.0.1")
        assert not s.test("10.0.0.1") and len(s) == 0

    def test_entries_sorted(self):
        s = IpSet("bl", "hash:ip")
        s.add("10.0.0.2")
        s.add("10.0.0.1")
        assert [str(ip) for ip, __ in s.entries()] == ["10.0.0.1", "10.0.0.2"]

    def test_registry_lifecycle(self):
        reg = IpsetRegistry()
        reg.create("a", "hash:ip")
        with pytest.raises(IpsetError):
            reg.create("a", "hash:ip")
        assert reg.names() == ["a"]
        reg.destroy("a")
        with pytest.raises(IpsetError):
            reg.destroy("a")
        with pytest.raises(IpsetError):
            reg.require("a")

    def test_unsupported_type_rejected(self):
        with pytest.raises(IpsetError):
            IpSet("x", "list:set")

    # a few shared bases make nested and equal networks common at every length
    BASES = [0x0A000000, 0x0A010203, 0x0A0102FF, 0xC0A80101, 0x80000000, 0]
    addresses = st.sampled_from(BASES) | st.integers(0, 0xFFFFFFFF)
    lengths = st.sampled_from([0, 8, 16, 24, 32]) | st.integers(0, 32)

    @given(st.sampled_from(["hash:ip", "hash:net"]), st.data(), st.lists(addresses, max_size=6))
    def test_matches_the_stored_prefixes(self, set_type, data, probes):
        """Against brute force over a set of the stored prefixes: ``test``,
        ``entries``, ``len``, and a registry gen that moves only when the
        membership does. Operations draw from a few entries, so that most
        of them meet a stored one."""
        # a hash:ip set refuses every length but 32, so draw that one often
        lengths = self.lengths if set_type == "hash:net" else st.just(32) | self.lengths
        pool = st.sampled_from(data.draw(st.lists(st.tuples(self.addresses, lengths), min_size=1, max_size=6)))
        ops = data.draw(st.lists(st.tuples(st.booleans(), pool), max_size=40))
        registry = IpsetRegistry()
        s = registry.create("s", set_type)
        stored = set()  # (length, network)
        for is_add, (addr, length) in ops:
            if set_type == "hash:ip" and not is_add:
                length = 32
            entry = (length, IPv4Prefix(IPv4Addr(addr), length).address.value)
            gen = registry.gen
            if not is_add:
                s.remove(addr, length)
                changed = entry in stored
                stored.discard(entry)
            elif set_type == "hash:ip" and length != 32:
                with pytest.raises(IpsetError):
                    s.add(addr, length)
                changed = False
            else:
                s.add(addr, length)
                changed = entry not in stored
                stored.add(entry)
            assert registry.gen == gen + changed
            assert s.entries() == [(IPv4Addr(network), n) for n, network in sorted(stored)]
            assert len(s) == len(stored)
            points = list(probes) + [network for __, network in stored]
            for point in points:
                expected = any(IPv4Prefix(IPv4Addr(point), n).address.value == network for n, network in stored)
                assert s.test(point) == expected

    def test_paper_blacklist_aggregation(self, kernel):
        """The gateway experiment: 100 blacklisted IPs in one ipset rule."""
        kernel.ipset_create("blacklist", "hash:ip")
        for i in range(100):
            kernel.ipset_add("blacklist", f"172.16.{i // 256}.{i % 256}")
        kernel.ipt_append(FORWARD, Rule(target=DROP, match_set="blacklist", set_dir="src"))
        blocked = udp_skb(src="172.16.0.5")
        verdict, scanned = kernel.netfilter.evaluate(FORWARD, blocked)
        assert verdict == DROP and scanned == 1
        allowed = udp_skb(src="10.0.0.1")
        verdict, scanned = kernel.netfilter.evaluate(FORWARD, allowed)
        assert verdict == ACCEPT and scanned == 1
