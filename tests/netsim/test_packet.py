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
    round_trips,
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

    @given(
        st.integers(5, 15),
        st.data(),
        st.sampled_from([IPPROTO_UDP, 47]),
        st.sampled_from([0, 0x4000]),
        st.binary(max_size=24),
    )
    def test_frames_with_options_round_trip(self, ihl, data, proto, flags_frag, payload):
        """Any IHL from 5 to 15 with a valid checksum re-serialises byte
        for byte: the options are kept and written back."""
        options = data.draw(st.binary(min_size=4 * (ihl - 5), max_size=4 * (ihl - 5)))
        src, dst = IPv4Addr.parse("10.0.0.1"), IPv4Addr.parse("10.9.8.7")
        body = payload if proto != IPPROTO_UDP else UDP(1234, 53).pack(payload, src, dst) + payload
        header = bytearray(
            bytes([0x40 | ihl, data.draw(st.integers(0, 255))])
            + (4 * ihl + len(body)).to_bytes(2, "big")
            + data.draw(st.binary(min_size=2, max_size=2))
            + flags_frag.to_bytes(2, "big")
            + bytes([data.draw(st.integers(1, 255)), proto, 0, 0])
            + src.to_bytes() + dst.to_bytes() + options
        )
        header[10:12] = internet_checksum(bytes(header)).to_bytes(2, "big")
        frame = Ethernet(DST_MAC, SRC_MAC, ETH_P_IP).pack() + bytes(header) + body
        parsed = Packet.from_bytes(frame)
        assert parsed.ip.options == options and parsed.ip.header_len == 4 * ihl
        assert parsed.to_bytes() == frame


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


# ------------------------------------------------------------- round trips

def _sum16(data: bytes) -> int:
    """The one's-complement sum of ``data``'s 16-bit words, mod 0xFFFF."""
    return int.from_bytes(bytes(data) + b"\x00" * (len(data) % 2), "big") % 0xFFFF


def _l4_span(frame: bytearray):
    """(IP header offset, IHL bytes, L4 offset, end of the datagram)."""
    l3 = 18 if frame[12:14] == b"\x81\x00" else 14
    ihl = (frame[l3] & 0x0F) * 4
    total = int.from_bytes(frame[l3 + 2:l3 + 4], "big")
    return l3, ihl, l3 + ihl, min(l3 + total, len(frame))


def _pseudo_sum(frame: bytearray, l3: int, proto: int, length: int) -> int:
    return _sum16(frame[l3 + 12:l3 + 20]) + proto + length


def _fix_ip_checksum(frame: bytearray) -> None:
    l3, ihl, __, __ = _l4_span(frame)
    frame[l3 + 10:l3 + 12] = b"\x00\x00"
    frame[l3 + 10:l3 + 12] = internet_checksum(bytes(frame[l3:l3 + ihl])).to_bytes(2, "big")


def _fix_l4_checksum(frame: bytearray) -> None:
    """Recompute a UDP or TCP checksum the way ``pack`` does, over the
    datagram's own bytes (the UDP length field in the pseudo header)."""
    l3, __, l4, end = _l4_span(frame)
    proto = frame[l3 + 9]
    if proto == IPPROTO_UDP and end - l4 >= 8:
        frame[l4 + 6:l4 + 8] = b"\x00\x00"
        length = int.from_bytes(frame[l4 + 4:l4 + 6], "big")
        total = (_pseudo_sum(frame, l3, proto, length) + _sum16(frame[l4:end])) % 0xFFFF
        frame[l4 + 6:l4 + 8] = ((~total & 0xFFFF) or 0xFFFF).to_bytes(2, "big")
    elif proto == IPPROTO_TCP and end - l4 >= 20:
        frame[l4 + 16:l4 + 18] = b"\x00\x00"
        total = (_pseudo_sum(frame, l3, proto, end - l4) + _sum16(frame[l4:end])) % 0xFFFF
        frame[l4 + 16:l4 + 18] = (~total & 0xFFFF if total else 0).to_bytes(2, "big")


def _zero_l4_sum(frame: bytearray) -> None:
    """Rewrite the last whole payload word so the L4 sum without the
    checksum field is 0 mod 0xFFFF: the checksum then has two encodings
    of zero (0x0000 and 0xFFFF), and ``pack`` writes one of them."""
    l3, __, l4, end = _l4_span(frame)
    proto = frame[l3 + 9]
    hdr = {IPPROTO_UDP: 8, IPPROTO_TCP: 20}.get(proto)
    if hdr is None or end - l4 < hdr + 2:
        return
    at = l4 + hdr + ((end - l4 - hdr) // 2 - 1) * 2  # an even offset in the segment
    field = l4 + (6 if proto == IPPROTO_UDP else 16)
    frame[field:field + 2] = frame[at:at + 2] = b"\x00\x00"
    length = int.from_bytes(frame[l4 + 4:l4 + 6], "big") if proto == IPPROTO_UDP else end - l4
    rest = (_pseudo_sum(frame, l3, proto, length) + _sum16(frame[l4:end])) % 0xFFFF
    frame[at:at + 2] = ((0xFFFF - rest) % 0xFFFF).to_bytes(2, "big")


def _zero_ip_sum(frame: bytearray) -> None:
    """Rewrite the IP ident so the header sum without the checksum is 0
    mod 0xFFFF (the IP checksum then has two encodings of zero)."""
    l3, ihl, __, __ = _l4_span(frame)
    frame[l3 + 4:l3 + 6] = frame[l3 + 10:l3 + 12] = b"\x00\x00"
    rest = _sum16(frame[l3:l3 + ihl])
    frame[l3 + 4:l3 + 6] = ((0xFFFF - rest) % 0xFFFF).to_bytes(2, "big")


@st.composite
def hostile_frames(draw):
    """Frames near the round-trip boundary: a canonical frame of some kind,
    then edits that ``Packet.to_bytes`` would undo."""
    kind = draw(st.sampled_from(["udp", "tcp", "icmp", "gre", "arp", "lldp"]))
    src = IPv4Addr(draw(st.integers(0, 0xFFFFFFFF)))
    dst = IPv4Addr(draw(st.integers(0, 0xFFFFFFFF)))
    payload = draw(st.binary(max_size=40))
    vlan = VlanTag(vid=draw(st.integers(0, 4095))) if draw(st.integers(0, 3)) == 0 else None
    options = draw(st.sampled_from([b"", b"", b"", b"\x01\x01\x01\x00"]))
    ip = IPv4(src=src, dst=dst, ttl=draw(st.integers(1, 255)), tos=draw(st.integers(0, 255)),
              ident=draw(st.integers(0, 0xFFFF)), flags=draw(st.sampled_from([0, 2])), options=options)
    if kind == "arp":
        pkt = make_arp_request(SRC_MAC, src, dst)
        pkt.vlan = vlan
    elif kind == "lldp":
        pkt = Packet(eth=Ethernet(DST_MAC, SRC_MAC, 0x88CC), vlan=vlan, payload=payload)
    else:
        ip.proto = {"udp": IPPROTO_UDP, "tcp": IPPROTO_TCP, "icmp": IPPROTO_ICMP, "gre": 47}[kind]
        l4 = {
            "udp": lambda: UDP(draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFFFF))),
            "tcp": lambda: TCP(draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFFFF)),
                               seq=draw(st.integers(0, 0xFFFFFFFF)), flags=draw(st.integers(0, 255))),
            "icmp": lambda: ICMP(draw(st.integers(0, 255))),
            "gre": lambda: None,
        }[kind]()
        pkt = Packet(eth=Ethernet(DST_MAC, SRC_MAC), vlan=vlan, ip=ip, l4=l4, payload=payload)
    frame = bytearray(pkt.to_bytes())
    if pkt.ip is None:
        return bytes(frame) + bytes(draw(st.integers(0, 3)))
    l3, __, l4, __ = _l4_span(frame)
    edits = draw(st.lists(st.sampled_from([
        "l4-zero-sum", "ip-zero-sum", "udp-length-0", "tcp-options", "tcp-reserved", "tcp-urgent",
        "more-fragments", "fragment-offset",
    ]), max_size=3, unique=True))
    if "udp-length-0" in edits and kind == "udp":
        frame[l4 + 4:l4 + 6] = b"\x00\x00"
    if kind == "tcp":
        if "tcp-options" in edits and len(payload) >= 4:
            frame[l4 + 12] = 0x60
        if "tcp-reserved" in edits:
            frame[l4 + 12] |= draw(st.integers(1, 15))
        if "tcp-urgent" in edits:
            frame[l4 + 18:l4 + 20] = draw(st.integers(1, 0xFFFF)).to_bytes(2, "big")
    if "more-fragments" in edits:
        frame[l3 + 6] |= 0x20
    if "fragment-offset" in edits:
        frame[l3 + 7] = draw(st.integers(1, 255))
    if "l4-zero-sum" in edits:
        _zero_l4_sum(frame)
    _fix_l4_checksum(frame)
    if "ip-zero-sum" in edits:
        _zero_ip_sum(frame)
    _fix_ip_checksum(frame)
    # a checksum field (IP, ICMP, UDP or TCP) set to either encoding of
    # zero, valid or not
    if draw(st.booleans()):
        at = draw(st.sampled_from([l3 + 10, l4 + 2, l4 + 6, l4 + 16]))
        if at + 2 <= len(frame):
            frame[at:at + 2] = draw(st.sampled_from([b"\x00\x00", b"\xff\xff"]))
    return bytes(frame) + bytes(draw(st.sampled_from([0, 0, 0, 1, 2, 18])))


class TestRoundTrips:
    """``round_trips`` accepts only frames ``Packet.from_bytes(b).to_bytes()``
    gives back byte for byte: the slow path sends those bytes unparsed."""

    UDP53 = make_udp(SRC_MAC, DST_MAC, "10.0.0.1", "10.0.9.9", sport=4000, dport=53, payload=b"q" * 13)
    TCP80 = make_tcp(SRC_MAC, DST_MAC, "172.16.0.5", "10.0.9.9", sport=4000, dport=80, payload=b"GET /")

    @settings(max_examples=1500, deadline=None)
    @given(hostile_frames())
    def test_accepted_frames_round_trip(self, frame):
        if round_trips(frame):
            assert Packet.from_bytes(frame).to_bytes() == frame

    @given(
        st.sampled_from([IPPROTO_UDP, IPPROTO_TCP]),
        st.integers(0, 0xFFFFFFFF),
        st.integers(0, 0xFFFF),
        st.binary(max_size=1500),
    )
    def test_canonical_udp_and_tcp_are_accepted(self, proto, dst, port, payload):
        """Every UDP or TCP frame ``to_bytes`` writes is accepted, so the
        check declines only what would not round-trip."""
        make = make_udp if proto == IPPROTO_UDP else make_tcp
        frame = make(SRC_MAC, DST_MAC, "10.0.0.1", IPv4Addr(dst), sport=port, dport=port, payload=payload).to_bytes()
        assert round_trips(frame)

    @pytest.mark.parametrize("layer", ["ip", "udp", "tcp"])
    def test_the_other_encoding_of_zero_is_declined(self, layer):
        """Where a checksum field may hold 0x0000 or 0xFFFF and verify
        either way, only the one ``pack`` writes is accepted."""
        frame = bytearray((self.TCP80 if layer == "tcp" else self.UDP53).to_bytes())
        if layer == "ip":
            _zero_ip_sum(frame)
        else:
            _zero_l4_sum(frame)
        _fix_l4_checksum(frame)
        _fix_ip_checksum(frame)
        assert round_trips(bytes(frame)) and Packet.from_bytes(bytes(frame)).to_bytes() == frame
        at = {"ip": 24, "udp": 40, "tcp": 50}[layer]
        written = {"ip": b"\x00\x00", "udp": b"\xff\xff", "tcp": b"\x00\x00"}[layer]
        assert frame[at:at + 2] == written
        frame[at:at + 2] = bytes(a ^ 0xFF for a in written)  # still verifies
        assert internet_checksum(frame[14:34]) == 0
        assert not round_trips(bytes(frame))
        assert Packet.from_bytes(bytes(frame)).to_bytes() != frame

    def test_udp_length_0_is_declined(self):
        """``UDP.pack`` writes a length of 0 back as the real one."""
        frame = bytearray(self.UDP53.to_bytes())
        frame[38:40] = b"\x00\x00"
        _fix_l4_checksum(frame)  # verifies over a pseudo header length of 0
        assert not round_trips(bytes(frame))
        assert Packet.from_bytes(bytes(frame)).to_bytes() != frame

    def test_icmp_is_declined(self):
        """Only UDP and TCP are judged; an ICMP frame is left to a parse."""
        frame = Packet(
            eth=Ethernet(DST_MAC, SRC_MAC, ETH_P_IP),
            ip=IPv4(src=IPv4Addr.parse("10.0.0.1"), dst=IPv4Addr.parse("10.0.0.2"), proto=IPPROTO_ICMP),
            l4=ICMP(ICMP_ECHO_REQUEST, ident=7, seq=3),
            payload=b"ping",
        ).to_bytes()
        assert not round_trips(frame)
        assert not round_trips(frame[:36] + b"\x00\x00" + frame[38:])  # a bad checksum

    @pytest.mark.parametrize("name, base, offset, data", [
        ("padding", "udp", None, b"\x00" * 18),
        ("udp-checksum-0", "udp", 40, b"\x00\x00"),
        ("tcp-options", "tcp", 46, b"\x60"),
        ("tcp-reserved-bits", "tcp", 46, b"\x51"),
        ("tcp-urgent-pointer", "tcp", 52, b"\x00\x01"),
    ])
    def test_declines_what_pack_rewrites(self, name, base, offset, data):
        """Each edit leaves checksums that verify, and a frame that does
        not round-trip."""
        frame = bytearray((self.UDP53 if base == "udp" else self.TCP80).to_bytes())
        if offset is None:
            frame += data
        else:
            frame[offset:offset + len(data)] = data
        if name != "udp-checksum-0":
            _fix_l4_checksum(frame)
        _fix_ip_checksum(frame)
        assert not round_trips(bytes(frame))
        assert Packet.from_bytes(bytes(frame)).to_bytes() != frame

    @pytest.mark.parametrize("name, offset, data", [
        ("more-fragments", 20, b"\x20"),
        ("fragment-offset", 21, b"\x01"),
        ("ip-options", 14, b"\x46"),
    ])
    def test_declines_outside_its_class(self, name, offset, data):
        """Fragments and IP options are declined whether or not they round-trip."""
        frame = bytearray(self.UDP53.to_bytes())
        frame[offset:offset + len(data)] = data
        _fix_ip_checksum(frame)
        Packet.from_bytes(bytes(frame))  # parses
        assert not round_trips(bytes(frame))

    def test_declines_vlan_and_arp(self):
        tagged = make_udp(SRC_MAC, DST_MAC, "10.0.0.1", "10.0.9.9", dport=53, vlan=7).to_bytes()
        assert Packet.from_bytes(tagged).to_bytes() == tagged
        assert not round_trips(tagged)
        assert not round_trips(make_arp_request(SRC_MAC, "10.0.0.1", "10.0.0.2").to_bytes())
