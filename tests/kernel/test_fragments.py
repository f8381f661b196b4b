"""Tests for IP fragmentation/reassembly and housekeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import Kernel
from repro.kernel.fragments import REASSEMBLY_TIMEOUT_NS, Reassembler, fragment
from repro.kernel.sockets import udp_echo_server
from repro.measure.topology import LineTopology
from repro.netsim.clock import Clock
from repro.netsim.packet import IPPROTO_UDP, Packet, make_udp

MAC_A = "02:00:00:00:00:01"
MAC_B = "02:00:00:00:00:02"


def big_udp(payload_len, ident=7):
    pkt = make_udp(MAC_A, MAC_B, "10.0.1.2", "10.0.1.1", dport=7, payload=bytes(range(256)) * (payload_len // 256 + 1))
    pkt.payload = pkt.payload[:payload_len]
    pkt.ip.ident = ident
    return pkt


class TestFragmentFunction:
    def test_small_packet_untouched(self):
        pkt = big_udp(100)
        assert fragment(pkt, mtu=1500) == [pkt]

    def test_fragments_cover_payload(self):
        pkt = big_udp(3000)
        pieces = fragment(pkt, mtu=1500)
        assert len(pieces) >= 3
        assert pieces[0].ip.frag_offset == 0 and pieces[0].ip.more_fragments
        assert not pieces[-1].ip.more_fragments
        # offsets are 8-byte aligned and contiguous
        seen = 0
        for piece in pieces:
            assert piece.ip.frag_offset * 8 == seen
            seen += len(piece.payload)

    def test_fragments_split_after_the_options(self):
        """An IHL-6 header is split after its 24 bytes; the fragments carry
        no options (Linux copies those with the copied flag set)."""
        pkt = big_udp(3000)
        pkt.ip.options = b"\x01\x01\x01\x00"
        pkt = Packet.from_bytes(pkt.to_bytes())
        pieces = fragment(pkt, mtu=1500)
        assert all(piece.ip.options == b"" for piece in pieces)
        assert b"".join(piece.payload for piece in pieces) == pkt.to_bytes()[14 + 24:]

    def test_first_fragment_options_reassemble(self):
        pieces = fragment(big_udp(3000), mtu=1500)
        pieces[0].ip.options = b"\x01\x01\x01\x00"
        reassembler = Reassembler(Clock())
        whole = [reassembler.push(Packet.from_bytes(p.to_bytes())) for p in pieces][-1]
        assert whole.ip.options == b"\x01\x01\x01\x00"
        assert whole.to_bytes()[14 + 24:] == big_udp(3000).to_bytes()[14 + 20:]

    def test_df_prevents_fragmentation(self):
        pkt = big_udp(3000)
        pkt.ip.flags = 0x2  # DF
        assert fragment(pkt, mtu=1500) == []

    @settings(max_examples=25, deadline=None)
    @given(size=st.integers(min_value=1, max_value=6000), mtu=st.sampled_from([576, 1000, 1500]))
    def test_fragment_reassemble_round_trip(self, size, mtu):
        clock = Clock()
        reassembler = Reassembler(clock)
        pkt = big_udp(size)
        original = pkt.to_bytes()
        pieces = fragment(pkt, mtu=mtu)
        whole = None
        for piece in pieces:
            result = reassembler.push(Packet.from_bytes(piece.to_bytes()))
            if result is not None:
                whole = result
        assert whole is not None
        # IP payload identical (MACs/ident preserved; checksum recomputed)
        assert whole.to_bytes()[14:] == original[14:]

    def test_out_of_order_reassembly(self):
        clock = Clock()
        reassembler = Reassembler(clock)
        pieces = fragment(big_udp(4000), mtu=1000)
        results = [reassembler.push(Packet.from_bytes(p.to_bytes())) for p in reversed(pieces)]
        assert sum(1 for r in results if r is not None) == 1

    def test_interleaved_flows(self):
        clock = Clock()
        reassembler = Reassembler(clock)
        a = fragment(big_udp(2500, ident=1), mtu=1000)
        b = fragment(big_udp(2500, ident=2), mtu=1000)
        done = 0
        for pa, pb in zip(a, b):
            done += reassembler.push(Packet.from_bytes(pa.to_bytes())) is not None
            done += reassembler.push(Packet.from_bytes(pb.to_bytes())) is not None
        assert done == 2

    def test_timeout_gc(self):
        clock = Clock()
        reassembler = Reassembler(clock)
        pieces = fragment(big_udp(3000), mtu=1000)
        reassembler.push(Packet.from_bytes(pieces[0].to_bytes()))
        clock.advance(REASSEMBLY_TIMEOUT_NS + 1)
        assert reassembler.gc() == 1
        assert reassembler.timed_out == 1
        # late fragment starts a fresh queue, never completes silently
        assert reassembler.push(Packet.from_bytes(pieces[-1].to_bytes())) is None


class TestStackIntegration:
    def test_local_delivery_reassembles(self):
        topo = LineTopology()
        got = []
        topo.dut.sockets.bind(IPPROTO_UDP, 7, lambda k, skb: got.append(skb.pkt.payload))
        topo.dut.neigh_add("eth0", "10.0.1.2", topo.src_eth.mac)
        pkt = big_udp(3000)
        pkt.eth.dst = topo.dut_in.mac
        for piece in fragment(pkt, mtu=1500):
            topo.dut_in.nic.receive_from_wire(piece.to_bytes())
        assert len(got) == 1 and len(got[0]) == 3000

    def test_egress_fragmentation_at_mtu(self):
        topo = LineTopology()
        topo.prewarm_neighbors()
        topo.dut.devices.by_name("eth1").mtu = 600
        received = []
        topo.sink_eth.nic.attach(lambda f, q: received.append(Packet.from_bytes(f)))
        topo.install_prefixes(2)
        pkt = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", topo.flow_destination(0, 2),
                       payload=b"z" * 2000)
        topo.dut_in.nic.receive_from_wire(pkt.to_bytes())
        assert len(received) > 1
        assert all(p.frame_len - 14 <= 600 for p in received)

    def test_end_to_end_fragmented_echo(self):
        """Fragments forwarded through the DUT reassemble at the far host."""
        topo = LineTopology()
        topo.install_prefixes(2)
        topo.prewarm_neighbors()
        topo.dut.devices.by_name("eth1").mtu = 600
        topo.sink.route_add("10.0.1.0/24", via="10.0.2.1")
        got = []
        topo.sink.sockets.bind(IPPROTO_UDP, 7, lambda k, skb: got.append(len(skb.pkt.payload)))
        # destination owned by the sink so local delivery reassembles there
        topo.sink.add_address("eth0", "10.100.0.77/32")
        pkt = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.77",
                       dport=7, payload=b"q" * 2000)
        topo.dut_in.nic.receive_from_wire(pkt.to_bytes())
        assert got == [2000]

    def test_housekeeping(self):
        kernel = Kernel("hk")
        kernel.add_bridge("br0")
        stats = kernel.run_housekeeping()
        assert stats == {"fdb_aged": 0, "conntrack_expired": 0, "fragments_timed_out": 0}
