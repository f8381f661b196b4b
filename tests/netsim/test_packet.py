"""Tests for byte-accurate packet encode/parse."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim.addresses import IPv4Addr, MacAddr
from repro.netsim.checksum import internet_checksum, verify_checksum
from repro.netsim.packet import (
    ARP,
    ARP_REPLY,
    ARP_REQUEST,
    ETH_P_8021Q,
    ETH_P_ARP,
    ETH_P_IP,
    ICMP,
    ICMP_ECHO_REQUEST,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPv4,
    Ethernet,
    Packet,
    PacketError,
    TCP,
    UDP,
    VlanTag,
    ipv4_fields,
    make_arp_reply,
    make_arp_request,
    make_tcp,
    make_udp,
)

SRC_MAC = MacAddr.parse("02:00:00:00:00:01")
DST_MAC = MacAddr.parse("02:00:00:00:00:02")


class TestChecksum:
    def test_known_vector(self):
        # RFC 1071 example data
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == (~0xDDF2) & 0xFFFF

    def test_verify_with_embedded_checksum(self):
        data = bytes([0x12, 0x34, 0x00, 0x00, 0x56, 0x78])
        csum = internet_checksum(data)
        patched = data[:2] + csum.to_bytes(2, "big") + data[4:]
        assert verify_checksum(patched)

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    @staticmethod
    def reference(data) -> int:
        """RFC 1071's word loop with end-around carry."""
        if len(data) % 2:
            data = bytes(data) + b"\x00"
        total = 0
        for i in range(0, len(data), 2):
            total += (data[i] << 8) | data[i + 1]
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        return ~total & 0xFFFF

    # the carry edge cases: all-zero data, runs of 0xFFFF words, a sum that
    # is a nonzero multiple of 0xFFFF, odd lengths
    @example(b"")
    @example(b"\x00")
    @example(b"\x00" * 20)
    @example(b"\xff")
    @example(b"\xff\xff")
    @example(b"\xff" * 41)
    @example(b"\xff\xff" * 300)
    @example(b"\x80\x00\x7f\xff")
    @example(b"\x00\x01\xff\xfe")
    @example(b"\xff\xff\x00\x00\x00")
    @given(st.binary(max_size=1600))
    def test_matches_word_loop(self, data):
        assert internet_checksum(data) == self.reference(data)
        assert internet_checksum(memoryview(data)) == self.reference(data)


class TestEthernet:
    def test_round_trip(self):
        eth = Ethernet(DST_MAC, SRC_MAC, ETH_P_IP)
        parsed, rest = Ethernet.parse(eth.pack() + b"xyz")
        assert parsed == eth
        assert rest == b"xyz"

    def test_truncated(self):
        with pytest.raises(PacketError):
            Ethernet.parse(b"\x00" * 10)


class TestVlan:
    def test_round_trip(self):
        tag = VlanTag(vid=100, pcp=3, ethertype=ETH_P_IP)
        parsed, rest = VlanTag.parse(tag.pack())
        assert parsed == tag
        assert rest == b""

    def test_vid_range_checked(self):
        with pytest.raises(PacketError):
            VlanTag(vid=5000)

    def test_tagged_frame_round_trip(self):
        pkt = make_udp(SRC_MAC, DST_MAC, "10.0.0.1", "10.0.0.2", vlan=42)
        raw = pkt.to_bytes()
        reparsed = Packet.from_bytes(raw)
        assert reparsed.vlan is not None and reparsed.vlan.vid == 42
        assert reparsed.eth.ethertype == ETH_P_8021Q
        assert reparsed.ip.dst == IPv4Addr.parse("10.0.0.2")


class TestARP:
    def test_request_round_trip(self):
        pkt = make_arp_request(SRC_MAC, "10.0.0.1", "10.0.0.2")
        reparsed = Packet.from_bytes(pkt.to_bytes())
        assert reparsed.arp.opcode == ARP_REQUEST
        assert reparsed.eth.dst.is_broadcast
        assert reparsed.arp.target_ip == IPv4Addr.parse("10.0.0.2")

    def test_reply_round_trip(self):
        pkt = make_arp_reply(SRC_MAC, "10.0.0.1", DST_MAC, "10.0.0.2")
        reparsed = Packet.from_bytes(pkt.to_bytes())
        assert reparsed.arp.opcode == ARP_REPLY
        assert reparsed.arp.sender_mac == SRC_MAC


class TestIPv4:
    def test_round_trip(self):
        hdr = IPv4(src=IPv4Addr.parse("1.2.3.4"), dst=IPv4Addr.parse("5.6.7.8"), proto=IPPROTO_UDP, ttl=17)
        parsed, rest = IPv4.parse(hdr.pack(payload_len=0))
        assert parsed.src == hdr.src and parsed.dst == hdr.dst
        assert parsed.ttl == 17
        assert rest == b""

    def test_checksum_enforced(self):
        raw = bytearray(IPv4(src=IPv4Addr.parse("1.2.3.4"), dst=IPv4Addr.parse("5.6.7.8")).pack())
        raw[8] ^= 0xFF  # corrupt TTL
        with pytest.raises(PacketError):
            IPv4.parse(bytes(raw))

    def test_fragment_flags(self):
        frag = IPv4(src=IPv4Addr.parse("1.1.1.1"), dst=IPv4Addr.parse("2.2.2.2"), flags=0x1, frag_offset=0)
        assert frag.is_fragment and frag.more_fragments
        mid = IPv4(src=IPv4Addr.parse("1.1.1.1"), dst=IPv4Addr.parse("2.2.2.2"), frag_offset=100)
        assert mid.is_fragment and not mid.more_fragments

    def test_decrement_ttl_is_pure(self):
        hdr = IPv4(src=IPv4Addr.parse("1.1.1.1"), dst=IPv4Addr.parse("2.2.2.2"), ttl=5)
        lowered = hdr.decrement_ttl()
        assert lowered.ttl == 4 and hdr.ttl == 5

    def test_rejects_non_v4(self):
        raw = bytearray(IPv4(src=IPv4Addr.parse("1.1.1.1"), dst=IPv4Addr.parse("2.2.2.2")).pack())
        raw[0] = (6 << 4) | 5
        with pytest.raises(PacketError):
            IPv4.parse(bytes(raw))


class TestL4:
    def test_udp_round_trip_with_checksum(self):
        pkt = make_udp(SRC_MAC, DST_MAC, "10.0.0.1", "10.0.0.2", sport=9999, dport=53, payload=b"hello")
        reparsed = Packet.from_bytes(pkt.to_bytes())
        assert isinstance(reparsed.l4, UDP)
        assert (reparsed.l4.sport, reparsed.l4.dport) == (9999, 53)
        assert reparsed.payload == b"hello"

    def test_tcp_round_trip_flags(self):
        pkt = make_tcp(SRC_MAC, DST_MAC, "10.0.0.1", "10.0.0.2", flags=TCP.SYN | TCP.ACK)
        reparsed = Packet.from_bytes(pkt.to_bytes())
        assert isinstance(reparsed.l4, TCP)
        assert reparsed.l4.has(TCP.SYN) and reparsed.l4.has(TCP.ACK) and not reparsed.l4.has(TCP.FIN)

    def test_icmp_round_trip(self):
        pkt = Packet(
            eth=Ethernet(DST_MAC, SRC_MAC, ETH_P_IP),
            ip=IPv4(src=IPv4Addr.parse("10.0.0.1"), dst=IPv4Addr.parse("10.0.0.2"), proto=1),
            l4=ICMP(ICMP_ECHO_REQUEST, ident=7, seq=3),
            payload=b"ping",
        )
        reparsed = Packet.from_bytes(pkt.to_bytes())
        assert isinstance(reparsed.l4, ICMP)
        assert (reparsed.l4.ident, reparsed.l4.seq) == (7, 3)
        assert reparsed.payload == b"ping"

    def test_truncated_udp(self):
        with pytest.raises(PacketError):
            UDP.parse(b"\x00\x01")


class TestPacketContainer:
    def test_frame_len_matches_bytes(self):
        pkt = make_udp(SRC_MAC, DST_MAC, "10.0.0.1", "10.0.0.2", payload=b"x" * 100)
        assert pkt.frame_len == len(pkt.to_bytes())
        assert pkt.frame_len == 14 + 20 + 8 + 100

    def test_clone_is_deep(self):
        pkt = make_udp(SRC_MAC, DST_MAC, "10.0.0.1", "10.0.0.2")
        other = pkt.clone()
        other.ip.ttl = 1
        assert pkt.ip.ttl == 64

    def test_unknown_ethertype_keeps_payload(self):
        raw = Ethernet(DST_MAC, SRC_MAC, 0x88CC).pack() + b"lldp-data"
        parsed = Packet.from_bytes(raw)
        assert parsed.ip is None and parsed.arp is None
        assert parsed.payload == b"lldp-data"

    def test_unknown_ip_proto_keeps_payload(self):
        pkt = Packet(
            eth=Ethernet(DST_MAC, SRC_MAC, ETH_P_IP),
            ip=IPv4(src=IPv4Addr.parse("1.1.1.1"), dst=IPv4Addr.parse("2.2.2.2"), proto=89),
            payload=b"ospf",
        )
        reparsed = Packet.from_bytes(pkt.to_bytes())
        assert reparsed.l4 is None and reparsed.payload == b"ospf"

    def test_padding_trimmed_via_total_length(self):
        pkt = make_udp(SRC_MAC, DST_MAC, "10.0.0.1", "10.0.0.2", payload=b"ab")
        raw = pkt.to_bytes() + b"\x00" * 18  # Ethernet min-frame padding
        reparsed = Packet.from_bytes(raw)
        assert reparsed.payload == b"ab"

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=65535),
        st.binary(max_size=64),
    )
    def test_udp_round_trip_property(self, src, dst, sport, dport, payload):
        pkt = make_udp(SRC_MAC, DST_MAC, IPv4Addr(src), IPv4Addr(dst), sport, dport, payload)
        reparsed = Packet.from_bytes(pkt.to_bytes())
        assert reparsed.ip.src == IPv4Addr(src)
        assert reparsed.ip.dst == IPv4Addr(dst)
        assert (reparsed.l4.sport, reparsed.l4.dport) == (sport, dport)
        assert reparsed.payload == payload


class TestIpv4Fields:
    """``ipv4_fields`` accepts only frames ``Packet.from_bytes`` parses as
    untagged IPv4, and reads the same src, dst and protocol."""

    BASES = [
        make_udp(SRC_MAC, DST_MAC, "10.0.0.1", "10.0.9.9", dport=53, payload=b"q" * 12).to_bytes(),
        make_tcp(SRC_MAC, DST_MAC, "172.16.0.5", "10.0.9.9", dport=80).to_bytes(),
        Packet(
            eth=Ethernet(dst=DST_MAC, src=SRC_MAC, ethertype=ETH_P_IP),
            ip=IPv4(src=IPv4Addr.parse("192.168.1.1"), dst=IPv4Addr.parse("10.0.0.2"), proto=IPPROTO_ICMP),
            l4=ICMP(ICMP_ECHO_REQUEST),
            payload=b"p" * 16,
        ).to_bytes(),
    ]

    def test_reads_plain_frames(self):
        for frame in self.BASES:
            pkt = Packet.from_bytes(frame)
            assert ipv4_fields(frame) == (pkt.ip.src.value, pkt.ip.dst.value, pkt.ip.proto)

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.sampled_from(BASES),
        # the ethertype, version/IHL, total length, flags/fragment offset,
        # protocol and TCP data offset bytes, or any other
        edits=st.lists(
            st.tuples(
                st.sampled_from([12, 13, 14, 16, 17, 20, 21, 23, 46]) | st.integers(12, 50),
                st.sampled_from([0x00, 0x01, 0x06, 0x08, 0x11, 0x14, 0x20, 0x44, 0x46, 0x50, 0x81]) | st.integers(0, 255),
            ),
            max_size=3,
        ),
        fix_checksum=st.booleans(),
        tail=st.integers(-30, 20),
    )
    def test_accepts_only_what_from_bytes_parses(self, base, edits, fix_checksum, tail):
        frame = bytearray(base)
        for offset, value in edits:
            frame[offset] = value
        if fix_checksum:
            frame[24:26] = b"\x00\x00"
            frame[24:26] = internet_checksum(frame[14:34]).to_bytes(2, "big")
        frame = bytes(frame[:tail] if tail < 0 else frame + b"\x00" * tail)
        fields = ipv4_fields(frame)
        if fields is not None:
            pkt = Packet.from_bytes(frame)  # must not raise
            assert pkt.vlan is None
            assert fields == (pkt.ip.src.value, pkt.ip.dst.value, pkt.ip.proto)
