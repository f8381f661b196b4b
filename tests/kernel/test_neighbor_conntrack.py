"""Tests for the neighbor (ARP) table and conntrack."""

import pytest

from repro.core import Controller
from repro.kernel.conntrack import (
    CT_CLOSED,
    CT_ESTABLISHED,
    CT_NEW,
    ConnTuple,
    Conntrack,
    TCP_CLOSE_TIMEOUT_NS,
    TCP_TIMEOUT_NS,
    UDP_TIMEOUT_NS,
)
from repro.kernel.neighbor import (
    MAX_QUEUE,
    NUD_FAILED,
    NUD_PERMANENT,
    NUD_REACHABLE,
    NUD_STALE,
    NeighborTable,
    REACHABLE_TIME_NS,
)
from repro.measure.topology import LineTopology
from repro.netsim.addresses import IPv4Addr, MacAddr
from repro.netsim.clock import Clock
from repro.netsim.packet import make_tcp, make_udp, TCP
from repro.netsim.skbuff import SKBuff

MAC1 = MacAddr.parse("02:00:00:00:00:01")
MAC2 = MacAddr.parse("02:00:00:00:00:02")


class TestNeighborTable:
    def test_update_then_resolved(self):
        table = NeighborTable(Clock())
        table.update(1, "10.0.0.2", MAC1)
        assert table.resolved(1, "10.0.0.2") == MAC1

    def test_unknown_is_none(self):
        table = NeighborTable(Clock())
        assert table.resolved(1, "10.0.0.2") is None

    def test_per_interface_keying(self):
        table = NeighborTable(Clock())
        table.update(1, "10.0.0.2", MAC1)
        assert table.resolved(2, "10.0.0.2") is None

    def test_incomplete_entries_not_resolved(self):
        table = NeighborTable(Clock())
        table.create_incomplete(1, "10.0.0.2")
        assert table.resolved(1, "10.0.0.2") is None

    def test_queue_and_drain(self):
        table = NeighborTable(Clock())
        entry = table.create_incomplete(1, "10.0.0.2")
        assert table.queue_packet(entry, "pkt1")
        assert table.queue_packet(entry, "pkt2")
        drained = table.update(1, "10.0.0.2", MAC1)
        assert drained == ["pkt1", "pkt2"]
        assert table.update(1, "10.0.0.2", MAC1) == []

    def test_queue_cap(self):
        table = NeighborTable(Clock())
        entry = table.create_incomplete(1, "10.0.0.2")
        for i in range(MAX_QUEUE):
            assert table.queue_packet(entry, i)
        assert not table.queue_packet(entry, "overflow")

    def test_reachable_times_out_to_stale(self):
        clock = Clock()
        table = NeighborTable(clock)
        table.update(1, "10.0.0.2", MAC1)
        clock.advance(REACHABLE_TIME_NS + 1)
        entry = table.lookup(1, "10.0.0.2")
        assert entry.state == NUD_STALE
        # STALE entries are still usable by the datapath (as in Linux).
        assert table.resolved(1, "10.0.0.2") == MAC1

    def test_permanent_entries_never_stale(self):
        clock = Clock()
        table = NeighborTable(clock)
        table.update(1, "10.0.0.2", MAC1, state=NUD_PERMANENT)
        clock.advance(REACHABLE_TIME_NS * 10)
        assert table.lookup(1, "10.0.0.2").state == NUD_PERMANENT

    def test_fail_drops_queue(self):
        table = NeighborTable(Clock())
        entry = table.create_incomplete(1, "10.0.0.2")
        table.queue_packet(entry, "pkt")
        dropped = table.fail(1, "10.0.0.2")
        assert dropped == ["pkt"]
        assert table.lookup(1, "10.0.0.2").state == NUD_FAILED

    def test_flush_ifindex(self):
        table = NeighborTable(Clock())
        table.update(1, "10.0.0.2", MAC1)
        table.update(2, "10.0.0.3", MAC2)
        table.flush_ifindex(1)
        assert table.resolved(1, "10.0.0.2") is None
        assert table.resolved(2, "10.0.0.3") == MAC2


def udp_skb(src="10.0.0.1", dst="10.0.0.2", sport=100, dport=200):
    return SKBuff(pkt=make_udp(MAC1, MAC2, src, dst, sport=sport, dport=dport))


def tcp_skb(src="10.0.0.1", dst="10.0.0.2", sport=100, dport=200, flags=TCP.ACK):
    return SKBuff(pkt=make_tcp(MAC1, MAC2, src, dst, sport=sport, dport=dport, flags=flags))


class TestConntrack:
    def test_track_creates_new(self):
        ct = Conntrack(Clock())
        entry = ct.track(udp_skb())
        assert entry.state == CT_NEW and entry.packets == 1
        assert len(ct) == 1

    def test_reverse_confirms_established(self):
        ct = Conntrack(Clock())
        ct.track(udp_skb())
        entry = ct.track(udp_skb(src="10.0.0.2", dst="10.0.0.1", sport=200, dport=100))
        assert entry.state == CT_ESTABLISHED
        assert len(ct) == 1  # one connection, both directions

    def test_same_direction_stays_new(self):
        ct = Conntrack(Clock())
        ct.track(udp_skb())
        entry = ct.track(udp_skb())
        assert entry.state == CT_NEW and entry.packets == 2

    def test_lookup_both_directions(self):
        ct = Conntrack(Clock())
        ct.track(udp_skb())
        tup = ConnTuple.from_skb(udp_skb())
        assert ct.lookup(tup) is ct.lookup(tup.reversed())

    def test_udp_timeout_expires(self):
        clock = Clock()
        ct = Conntrack(clock)
        ct.track(udp_skb())
        clock.advance(UDP_TIMEOUT_NS + 1)
        assert ct.lookup(ConnTuple.from_skb(udp_skb())) is None

    def test_gc(self):
        clock = Clock()
        ct = Conntrack(clock)
        ct.track(udp_skb())
        ct.track(udp_skb(sport=111))
        clock.advance(UDP_TIMEOUT_NS + 1)
        ct.track(udp_skb(sport=222))
        assert ct.gc() == 2
        assert len(ct) == 1

    def test_tcp_fin_closes(self):
        ct = Conntrack(Clock())
        ct.track(tcp_skb())
        entry = ct.track(tcp_skb(flags=TCP.FIN | TCP.ACK))
        assert entry.state == CT_CLOSED

    def test_closed_tcp_expires_at_close_timeout(self):
        """Regression: FIN-closed flows must not linger for the full
        established timeout — they use nf_conntrack_tcp_timeout_close."""
        clock = Clock()
        ct = Conntrack(clock)
        ct.track(tcp_skb())
        entry = ct.track(tcp_skb(flags=TCP.FIN | TCP.ACK))
        assert entry.state == CT_CLOSED
        assert entry.timeout_ns() == TCP_CLOSE_TIMEOUT_NS
        clock.advance(TCP_CLOSE_TIMEOUT_NS + 1)
        assert ct.lookup(ConnTuple.from_skb(tcp_skb())) is None
        assert len(ct) == 0

    def test_closed_tcp_gc_collected_early(self):
        clock = Clock()
        ct = Conntrack(clock)
        ct.track(tcp_skb())
        ct.track(tcp_skb(flags=TCP.RST))
        clock.advance(TCP_CLOSE_TIMEOUT_NS + 1)
        assert ct.gc() == 1

    def test_established_tcp_keeps_long_timeout(self):
        clock = Clock()
        ct = Conntrack(clock)
        ct.track(tcp_skb())
        entry = ct.track(tcp_skb(src="10.0.0.2", dst="10.0.0.1", sport=200, dport=100))
        assert entry.state == CT_ESTABLISHED
        assert entry.timeout_ns() == TCP_TIMEOUT_NS
        clock.advance(TCP_CLOSE_TIMEOUT_NS + 1)  # past close timeout only
        assert ct.lookup(ConnTuple.from_skb(tcp_skb())) is entry

    def test_non_l4_packet_not_tracked(self):
        from repro.netsim.packet import make_arp_request

        ct = Conntrack(Clock())
        skb = SKBuff(pkt=make_arp_request(MAC1, "10.0.0.1", "10.0.0.2"))
        assert ct.track(skb) is None

    def test_tuple_from_skb(self):
        tup = ConnTuple.from_skb(udp_skb())
        assert tup.src == IPv4Addr.parse("10.0.0.1")
        assert (tup.sport, tup.dport) == (100, 200)
        assert tup.reversed().reversed() == tup


class TestNeighborChange:
    def test_deleted_neighbor_is_resolved_again(self):
        """After ``ip neigh del`` the fast path stops forwarding to the old
        entry: the slow path ARPs for the next hop and sends the queued
        frame, and the frames after it are on the fast path again."""
        topo = LineTopology()
        topo.install_prefixes(8)
        Controller(topo.dut, hook="xdp").start()
        topo.prewarm_neighbors()
        seen = []
        sink_rx = topo.sink_eth.nic._handler

        def tee(frame, queue):
            seen.append(frame[12:14])
            sink_rx(frame, queue)

        topo.sink_eth.nic.attach(tee)
        frame = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", topo.flow_destination(0, 8),
                         sport=1234, dport=53).to_bytes()
        outcomes = topo.dut.stack.outcomes
        topo.dut_in.nic.receive_from_wire(frame)
        assert seen == [b"\x08\x00"] and outcomes["xdp_redirect"] == 1
        topo.dut.neigh_del("eth1", "10.0.2.2")
        topo.dut_in.nic.receive_from_wire(frame)
        assert seen[1:] == [b"\x08\x06", b"\x08\x00"]  # ARP request, then the frame
        assert outcomes["tx"] == 1
        topo.dut_in.nic.receive_from_wire(frame)
        assert seen[3:] == [b"\x08\x00"] and outcomes["xdp_redirect"] == 2
