"""The megaflow-style flow cache (extension beyond the paper).

Covers the four correctness pillars: conservative key extraction, per-table
generation-tag invalidation, LRU eviction at capacity, and counter accuracy
(including mirroring of the helper side effects a skipped run would have
had on netfilter rule counters).
"""

import pytest

from repro.core import Controller
from repro.kernel import Kernel
from repro.kernel.netfilter import Rule
from repro.measure.topology import LineTopology
from repro.netsim.addresses import ipv4
from repro.netsim.flowkey import FlowKey, extract_flow_key
from repro.netsim.packet import IPPROTO_ICMP, IPv4, Ethernet, Packet, make_tcp, make_udp

SRC_MAC = "02:00:00:00:00:01"
DST_MAC = "02:00:00:00:00:02"


def udp_frame(ttl=64, dport=53):
    return make_udp(SRC_MAC, DST_MAC, "10.0.1.2", "10.100.0.1", sport=1234, dport=dport, ttl=ttl).to_bytes()


class TestKeyExtraction:
    def test_good_udp_frame_keys(self):
        key = extract_flow_key(udp_frame(), 3)
        assert key == FlowKey(3, 0x0A000102, 0x0A640001, 17, 1234, 53)

    def test_good_tcp_frame_keys(self):
        frame = make_tcp(SRC_MAC, DST_MAC, "10.0.1.2", "10.100.0.1", sport=555, dport=80).to_bytes()
        key = extract_flow_key(frame, 1)
        assert key is not None
        assert (key.proto, key.sport, key.dport) == (6, 555, 80)

    def test_ifindex_distinguishes_flows(self):
        frame = udp_frame()
        assert extract_flow_key(frame, 1) != extract_flow_key(frame, 2)

    def test_short_frame_bypasses(self):
        assert extract_flow_key(udp_frame()[:37], 1) is None

    def test_non_ip_ethertype_bypasses(self):
        frame = bytearray(udp_frame())
        frame[12:14] = b"\x08\x06"  # ARP
        assert extract_flow_key(bytes(frame), 1) is None

    def test_ip_options_bypass(self):
        frame = bytearray(udp_frame())
        frame[14] = 0x46  # IHL 6: options present
        assert extract_flow_key(bytes(frame), 1) is None

    def test_corrupt_ip_checksum_bypasses(self):
        frame = bytearray(udp_frame())
        frame[24] ^= 0xFF
        assert extract_flow_key(bytes(frame), 1) is None

    def test_fragment_bypasses(self):
        pkt = Packet(
            eth=Ethernet.parse(udp_frame()[:14])[0],
            ip=IPv4(src=ipv4("10.0.1.2"), dst=ipv4("10.100.0.1"), proto=17, flags=1),  # MF
            payload=b"\x00" * 8,
        )
        assert extract_flow_key(pkt.to_bytes(), 1) is None
        pkt2 = Packet(
            eth=pkt.eth,
            ip=IPv4(src=ipv4("10.0.1.2"), dst=ipv4("10.100.0.1"), proto=17, frag_offset=3),
            payload=b"\x00" * 8,
        )
        assert extract_flow_key(pkt2.to_bytes(), 1) is None

    def test_non_tcp_udp_bypasses(self):
        pkt = Packet(
            eth=Ethernet.parse(udp_frame()[:14])[0],
            ip=IPv4(src=ipv4("10.0.1.2"), dst=ipv4("10.100.0.1"), proto=IPPROTO_ICMP),
            payload=b"\x00" * 8,
        )
        assert extract_flow_key(pkt.to_bytes(), 1) is None


def cached_router(num_prefixes=8, rules=()):
    topo = LineTopology()
    topo.install_prefixes(num_prefixes)
    for rule in rules:
        topo.dut.ipt_append("FORWARD", rule)
    controller = Controller(topo.dut, hook="xdp", flow_cache=True)
    controller.start()
    topo.prewarm_neighbors()
    outcomes = []
    topo.sink_eth.nic.attach(lambda frame, q: outcomes.append(frame))
    return topo, controller, outcomes


def send(topo, flow=0, dport=53, ttl=64, num_prefixes=8):
    frame = make_udp(
        topo.src_eth.mac,
        topo.dut_in.mac,
        "10.0.1.2",
        topo.flow_destination(flow, num_prefixes),
        sport=1234,
        dport=dport,
        ttl=ttl,
    ).to_bytes()
    topo.dut_in.nic.receive_from_wire(frame)


class TestGenerationInvalidation:
    def test_route_change_invalidates(self):
        topo, __, out = cached_router()
        cache = topo.dut.flow_cache
        send(topo)
        send(topo)
        assert cache.stats.hits["xdp"] == 1
        topo.dut.route_add("192.168.0.0/24", dev="eth0")
        send(topo)
        assert cache.stats.invalidations["gen:fib"] == 1
        assert len(out) == 3  # all still delivered via the full run + re-record

    def test_route_del_reroutes_correctly(self):
        """The load-bearing case: a more-specific route flips where packets
        go, and the cache must not keep forwarding them the old way."""
        topo, __, out = cached_router()
        cache = topo.dut.flow_cache
        send(topo, flow=0)
        send(topo, flow=0)
        delivered_before = len(out)
        # a /24 covering flow 0's destination, toward a black hole (eth0)
        topo.dut.route_add("10.100.0.0/24", via="10.0.1.2")
        for __ in range(3):
            send(topo, flow=0)
        assert len(out) == delivered_before  # nothing more reached the sink
        topo.dut.route_del("10.100.0.0/24")
        send(topo, flow=0)
        assert len(out) == delivered_before + 1
        assert any(r.startswith("gen:fib") for r in cache.stats.invalidations)

    def test_netfilter_change_invalidates(self):
        # a non-matching rule so the filter FPM exists from the start
        topo, __, out = cached_router(rules=[Rule(target="ACCEPT", dport=9999)])
        cache = topo.dut.flow_cache
        send(topo)
        send(topo)
        assert cache.stats.hits["xdp"] == 1
        before = len(out)
        drop = topo.dut.ipt_append("FORWARD", Rule(target="DROP", dport=53))
        send(topo)
        assert len(out) == before  # dropped, not replayed from the cache
        topo.dut.ipt_delete("FORWARD", drop.handle)
        send(topo)
        assert len(out) == before + 1

    def test_neighbor_change_invalidates(self):
        topo, __, out = cached_router()
        cache = topo.dut.flow_cache
        send(topo)
        send(topo)
        assert cache.stats.hits["xdp"] == 1
        topo.dut.neigh_del("eth1", "10.0.2.2")
        before_hits = cache.stats.hits["xdp"]
        send(topo)
        assert cache.stats.hits["xdp"] == before_hits
        assert any(r in ("gen:neighbor", "gen:devices") for r in cache.stats.invalidations)

    def test_ipset_change_invalidates(self):
        topo = LineTopology()
        topo.install_prefixes(8)
        topo.dut.ipset_create("bl", "hash:ip")
        topo.dut.ipt_append("FORWARD", Rule(target="DROP", match_set="bl", set_dir="src"))
        Controller(topo.dut, hook="xdp", flow_cache=True).start()
        topo.prewarm_neighbors()
        out = []
        topo.sink_eth.nic.attach(lambda frame, q: out.append(frame))
        send(topo)
        send(topo)
        assert len(out) == 2
        topo.dut.ipset_add("bl", "10.0.1.2")
        send(topo)
        assert len(out) == 2  # blacklisted now; cache must not deliver

    def test_expiry_deadline_invalidates_conntrack_entries(self):
        """Entries that consulted time-based state re-run after the deadline."""
        from repro.fastpath.flowcache import FlowEntry

        kernel = Kernel("t")
        cache = kernel.flow_cache
        entry = FlowEntry(
            key=None, verdict=2, redirect_ifindex=None, actions=None, deps={},
            expires_ns=kernel.clock.now_ns + 1000, eth_match=None, rules=(),
            ct_entries=(), fpms=(), full_ns=0.0, insns=0,
        )
        assert cache._staleness(entry) is None
        kernel.clock.advance(2000)
        assert cache._staleness(entry) == "expired"


class TestLruEviction:
    def test_capacity_bounds_entries_and_evicts_lru(self):
        topo, __, out = cached_router(num_prefixes=8)
        cache = topo.dut.flow_cache
        cache.capacity = 4
        for flow in range(6):  # 6 distinct flows through a 4-entry cache
            send(topo, flow=flow)
        assert len(cache) == 4
        assert cache.stats.evictions == 2
        # flows 0 and 1 were evicted; 2..5 remain and hit
        before = cache.stats.hits["xdp"]
        send(topo, flow=5)
        assert cache.stats.hits["xdp"] == before + 1
        send(topo, flow=0)  # evicted: a miss that re-records (evicting flow 2)
        assert cache.stats.evictions == 3

    def test_hit_refreshes_lru_position(self):
        topo, __, out = cached_router(num_prefixes=8)
        cache = topo.dut.flow_cache
        cache.capacity = 2
        send(topo, flow=0)
        send(topo, flow=1)
        send(topo, flow=0)  # refresh flow 0 to most-recent
        send(topo, flow=2)  # evicts flow 1, not flow 0
        before = cache.stats.misses["xdp"]
        send(topo, flow=0)
        assert cache.stats.misses["xdp"] == before  # still cached: a hit

    def test_flush_clears_partition(self):
        topo, __, out = cached_router()
        cache = topo.dut.flow_cache
        send(topo, flow=0)
        send(topo, flow=1)
        assert len(cache) == 2
        dropped = cache.flush(hook="xdp", ifindex=topo.dut_in.ifindex)
        assert dropped == 2
        assert len(cache) == 0


class TestCounters:
    def test_hit_miss_record_accounting(self):
        topo, __, out = cached_router()
        cache = topo.dut.flow_cache
        for __unused in range(5):
            send(topo, flow=0)
        for __unused in range(3):
            send(topo, flow=1)
        stats = cache.stats
        assert stats.misses["xdp"] == 2
        assert stats.records["xdp"] == 2
        assert stats.hits["xdp"] == 6
        assert stats.fpm_hits["router"] == 6
        assert stats.insns_avoided > 0
        assert stats.ns_saved > 0
        assert stats.hit_rate("xdp") == pytest.approx(6 / 8)
        assert len(out) == 8

    def test_ttl_expiring_packets_bypass_not_hit(self):
        topo, __, out = cached_router()
        cache = topo.dut.flow_cache
        send(topo, flow=0)
        hits_before = cache.stats.hits["xdp"]
        send(topo, flow=0, ttl=1)  # router FPM punts TTL<=1 to the slow path
        assert cache.stats.hits["xdp"] == hits_before
        # and the good flow's entry is still intact afterwards
        send(topo, flow=0)
        assert cache.stats.hits["xdp"] == hits_before + 1

    def test_rule_packet_counters_mirror_helper(self):
        """With the cache on, iptables counters advance exactly as if every
        packet had taken the full run (operator-visible fidelity)."""
        rule = Rule(target="ACCEPT", dport=53)
        cached = cached_router(rules=[Rule(target="ACCEPT", dport=53)])
        plain_topo = LineTopology()
        plain_topo.install_prefixes(8)
        plain_rule = plain_topo.dut.ipt_append("FORWARD", Rule(target="ACCEPT", dport=53))
        Controller(plain_topo.dut, hook="xdp", flow_cache=False).start()
        plain_topo.prewarm_neighbors()
        plain_topo.sink_eth.nic.attach(lambda frame, q: None)

        topo, __, out = cached
        cached_rule = topo.dut.netfilter.chain("FORWARD").rules[0]
        for __unused in range(7):
            send(topo)
            send(plain_topo)
        assert topo.dut.flow_cache.stats.hits["xdp"] > 0
        assert cached_rule.packets == plain_rule.packets

    def test_stats_reset(self):
        topo, __, out = cached_router()
        cache = topo.dut.flow_cache
        send(topo)
        send(topo)
        cache.stats.reset()
        assert cache.stats.hits["xdp"] == 0
        assert cache.stats.as_dict()["records"] == {}

    def test_stats_helpers(self):
        from repro.measure.stats import flow_cache_summary, format_flow_cache

        topo, __, out = cached_router()
        cache = topo.dut.flow_cache
        for __unused in range(4):
            send(topo)
        summary = flow_cache_summary(cache.stats)
        assert summary["hit_rate"] == pytest.approx(3 / 4)
        assert summary["hit_rate_xdp"] == pytest.approx(3 / 4)
        lines = format_flow_cache(cache.stats)
        assert any("hit rate" in line for line in lines)
        assert any("router" in line for line in lines)

    def test_stats_helpers_distinguish_no_traffic_from_zero(self):
        """Regression: a cache with no lookups reported a misleading 0.00%
        hit rate. No traffic means no rate at all."""
        from repro.fastpath import FlowCacheStats
        from repro.measure.stats import flow_cache_summary, format_flow_cache

        stats = FlowCacheStats()
        stats.records["xdp"] += 2  # warmed entries, but no lookup ever ran
        summary = flow_cache_summary(stats)
        assert summary["hit_rate"] is None
        assert "hit_rate_xdp" not in summary
        lines = format_flow_cache(stats)
        assert "n/a" in lines[0]
        assert any("xdp" in line and "rate=n/a" in line for line in lines)
        # a genuinely cold cache that DID see traffic still reports 0.00%
        stats.misses["xdp"] += 1
        assert flow_cache_summary(stats)["hit_rate"] == 0.0
        assert "0.00%" in format_flow_cache(stats)[0]


class TestControllerIntegration:
    def test_cache_disabled_by_default(self):
        topo = LineTopology()
        topo.install_prefixes(4)
        Controller(topo.dut, hook="xdp").start()
        assert topo.dut.flow_cache.enabled is False

    def test_custom_fpm_disables_cache(self):
        from repro.core.custom import make_protocol_counter

        topo, controller, out = cached_router()
        assert topo.dut.flow_cache.enabled is True
        send(topo)
        controller.add_custom_fpm(make_protocol_counter("probe"))
        assert topo.dut.flow_cache.enabled is False
        assert len(topo.dut.flow_cache) == 0  # flushed on disable

    def test_stop_disables_and_flushes(self):
        topo, controller, out = cached_router()
        send(topo)
        assert len(topo.dut.flow_cache) == 1
        controller.stop()
        assert topo.dut.flow_cache.enabled is False
        assert len(topo.dut.flow_cache) == 0

    def test_redeploy_flushes_partition(self):
        topo, controller, out = cached_router()
        cache = topo.dut.flow_cache
        send(topo)
        assert len(cache) == 1
        flushes_before = cache.stats.flushes
        # a structural change (the first iptables rule adds the filter FPM
        # to the graph) forces an atomic swap, which flushes the partition
        topo.dut.ipt_append("FORWARD", Rule(target="ACCEPT", dport=9999))
        assert cache.stats.flushes > flushes_before
        assert len(cache) == 0
