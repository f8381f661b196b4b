"""Byte-accurate packet headers: Ethernet, 802.1Q, ARP, IPv4, TCP, UDP, ICMP.

Each header is a dataclass with ``pack()`` → bytes and ``parse(data)`` →
(header, remainder). :class:`Packet` is the convenience container used by the
simulator: it assembles a full frame from stacked headers and can re-parse a
frame from raw bytes, which is what the eBPF fast path operates on.

The Ethernet, IPv4, UDP, TCP and ICMP codecs read and write each header
with one module-level :class:`struct.Struct`, straight from the frame's
memoryview, and carry addresses as the integers of their fields: a parse
builds each address from its unpacked field, and a pack writes each
address's ``value``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple, Union

from repro.netsim.addresses import IPv4Addr, MacAddr, ipv4, ipv4_of_field, mac, mac_of_field
from repro.netsim.checksum import internet_checksum

# EtherTypes
ETH_P_IP = 0x0800
ETH_P_ARP = 0x0806
ETH_P_8021Q = 0x8100

# IP protocol numbers
IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17

# ARP opcodes
ARP_REQUEST = 1
ARP_REPLY = 2

# ICMP types
ICMP_ECHO_REPLY = 0
ICMP_ECHO_REQUEST = 8
ICMP_TIME_EXCEEDED = 11


class PacketError(ValueError):
    """Raised when a frame cannot be parsed."""


# each MAC as its high 16 and low 32 bits, then the ethertype
_ETH = struct.Struct("!HIHIH")
# version/IHL, TOS, total length, ident, flags/fragment offset, TTL,
# protocol, header checksum, src, dst
_IPV4 = struct.Struct("!BBHHHBBHII")
_UDP = struct.Struct("!HHHH")
# ports, seq, ack, data offset byte, flags, window, checksum, urgent pointer
_TCP = struct.Struct("!HHIIBBHHH")
_ICMP = struct.Struct("!BBHHH")
# the IPv4 pseudo header the TCP and UDP checksums cover: src, dst, a zero
# byte, protocol, L4 length
_PSEUDO = struct.Struct("!IIxBH")
_U16 = struct.Struct("!H")


def _pack_eth(dst: MacAddr, src: MacAddr, ethertype: int) -> bytes:
    d, s = dst.value, src.value
    return _ETH.pack(d >> 32, d & 0xFFFFFFFF, s >> 32, s & 0xFFFFFFFF, ethertype)


@dataclass
class Ethernet:
    """Ethernet II header (14 bytes)."""

    dst: MacAddr
    src: MacAddr
    ethertype: int = ETH_P_IP

    HDR_LEN = 14

    def pack(self) -> bytes:
        return _pack_eth(self.dst, self.src, self.ethertype)

    @classmethod
    def parse(cls, data: bytes) -> Tuple["Ethernet", bytes]:
        if len(data) < cls.HDR_LEN:
            raise PacketError("truncated Ethernet header")
        dst_hi, dst_lo, src_hi, src_lo, ethertype = _ETH.unpack_from(data)
        dst, src = mac_of_field(dst_hi << 32 | dst_lo), mac_of_field(src_hi << 32 | src_lo)
        return cls(dst, src, ethertype), data[14:]


@dataclass
class VlanTag:
    """An 802.1Q VLAN tag (4 bytes, follows the Ethernet src/dst)."""

    vid: int
    pcp: int = 0
    ethertype: int = ETH_P_IP  # encapsulated ethertype

    HDR_LEN = 4

    def __post_init__(self) -> None:
        if not 0 <= self.vid <= 4095:
            raise PacketError(f"bad VLAN id {self.vid}")
        if not 0 <= self.pcp <= 7:
            raise PacketError(f"bad VLAN priority {self.pcp}")

    def pack(self) -> bytes:
        tci = (self.pcp << 13) | self.vid
        return struct.pack("!HH", tci, self.ethertype)

    @classmethod
    def parse(cls, data: bytes) -> Tuple["VlanTag", bytes]:
        if len(data) < cls.HDR_LEN:
            raise PacketError("truncated VLAN tag")
        tci, ethertype = struct.unpack("!HH", data[0:4])
        return cls(vid=tci & 0x0FFF, pcp=tci >> 13, ethertype=ethertype), data[4:]


@dataclass
class ARP:
    """ARP header for IPv4 over Ethernet (28 bytes)."""

    opcode: int
    sender_mac: MacAddr
    sender_ip: IPv4Addr
    target_mac: MacAddr
    target_ip: IPv4Addr

    HDR_LEN = 28

    def pack(self) -> bytes:
        return (
            struct.pack("!HHBBH", 1, ETH_P_IP, 6, 4, self.opcode)
            + self.sender_mac.to_bytes()
            + self.sender_ip.to_bytes()
            + self.target_mac.to_bytes()
            + self.target_ip.to_bytes()
        )

    @classmethod
    def parse(cls, data: bytes) -> Tuple["ARP", bytes]:
        if len(data) < cls.HDR_LEN:
            raise PacketError("truncated ARP header")
        htype, ptype, hlen, plen, opcode = struct.unpack("!HHBBH", data[0:8])
        if (htype, ptype, hlen, plen) != (1, ETH_P_IP, 6, 4):
            raise PacketError("unsupported ARP header")
        return (
            cls(
                opcode=opcode,
                sender_mac=MacAddr.from_bytes(data[8:14]),
                sender_ip=IPv4Addr.from_bytes(data[14:18]),
                target_mac=MacAddr.from_bytes(data[18:24]),
                target_ip=IPv4Addr.from_bytes(data[24:28]),
            ),
            data[28:],
        )


@dataclass
class IPv4:
    """IPv4 header: 20 fixed bytes, then any options, kept as raw bytes
    (a multiple of 4, at most 40) that :meth:`pack` writes back unchanged."""

    src: IPv4Addr
    dst: IPv4Addr
    proto: int = IPPROTO_UDP
    ttl: int = 64
    tos: int = 0
    ident: int = 0
    flags: int = 0  # bit 1 = DF, bit 0 (of the 3-bit field LSB) = MF
    frag_offset: int = 0
    total_length: int = 0  # filled in by pack() when zero
    options: bytes = b""

    HDR_LEN = 20

    @property
    def header_len(self) -> int:
        """The header's length in bytes, options included (IHL × 4)."""
        return self.HDR_LEN + len(self.options)

    def pack(self, payload_len: int = 0) -> bytes:
        header_len = self.header_len
        total = self.total_length or (header_len + payload_len)
        flags_frag = (self.flags << 13) | self.frag_offset
        header = _IPV4.pack(
            (4 << 4) | (header_len >> 2),
            self.tos,
            total,
            self.ident,
            flags_frag,
            self.ttl,
            self.proto,
            0,
            self.src.value,
            self.dst.value,
        ) + self.options
        checksum = internet_checksum(header)
        return header[:10] + _U16.pack(checksum) + header[12:]

    @classmethod
    def parse(cls, data: bytes) -> Tuple["IPv4", bytes]:
        if len(data) < cls.HDR_LEN:
            raise PacketError("truncated IPv4 header")
        ver_ihl = data[0]
        version, ihl = ver_ihl >> 4, (ver_ihl & 0x0F) * 4
        if version != 4:
            raise PacketError(f"not IPv4 (version={version})")
        if ihl < cls.HDR_LEN or len(data) < ihl:
            raise PacketError("bad IPv4 IHL")
        __, tos, total, ident, flags_frag, ttl, proto, __, src, dst = _IPV4.unpack_from(data)
        if internet_checksum(data[:ihl]) != 0:
            raise PacketError("bad IPv4 checksum")
        if total < ihl:  # ip_rcv drops these
            raise PacketError("IPv4 total length below the header length")
        if total > len(data):  # and these, as truncated
            raise PacketError("IPv4 total length past the end of the frame")
        hdr = cls(
            src=ipv4_of_field(src),
            dst=ipv4_of_field(dst),
            proto=proto,
            ttl=ttl,
            tos=tos,
            ident=ident,
            flags=flags_frag >> 13,
            frag_offset=flags_frag & 0x1FFF,
            total_length=total,
            options=bytes(data[cls.HDR_LEN:ihl]) if ihl > cls.HDR_LEN else b"",
        )
        # the body ends at the total length: anything after is Ethernet padding
        return hdr, data[ihl:total]

    @property
    def more_fragments(self) -> bool:
        return bool(self.flags & 0x1)

    @property
    def is_fragment(self) -> bool:
        return self.more_fragments or self.frag_offset != 0

    def decrement_ttl(self) -> "IPv4":
        return replace(self, ttl=self.ttl - 1)


@dataclass
class UDP:
    """UDP header (8 bytes)."""

    sport: int
    dport: int
    length: int = 0  # filled in by pack() when zero

    HDR_LEN = 8

    def pack(self, payload: bytes = b"", src: Optional[IPv4Addr] = None, dst: Optional[IPv4Addr] = None) -> bytes:
        length = self.length or (self.HDR_LEN + len(payload))
        header = _UDP.pack(self.sport, self.dport, length, 0)
        checksum = 0
        if src is not None and dst is not None:
            pseudo = _PSEUDO.pack(src.value, dst.value, IPPROTO_UDP, length)
            checksum = internet_checksum(pseudo + header + payload) or 0xFFFF
        return header[:6] + _U16.pack(checksum)

    @classmethod
    def parse(cls, data: bytes) -> Tuple["UDP", bytes]:
        if len(data) < cls.HDR_LEN:
            raise PacketError("truncated UDP header")
        sport, dport, length, __ = _UDP.unpack_from(data)
        return cls(sport, dport, length), data[8:]


@dataclass
class TCP:
    """TCP header (20 bytes; options unsupported by the simulator)."""

    sport: int
    dport: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535

    HDR_LEN = 20

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10

    def pack(self, payload: bytes = b"", src: Optional[IPv4Addr] = None, dst: Optional[IPv4Addr] = None) -> bytes:
        header = _TCP.pack(
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            5 << 4,
            self.flags,
            self.window,
            0,
            0,
        )
        checksum = 0
        if src is not None and dst is not None:
            pseudo = _PSEUDO.pack(src.value, dst.value, IPPROTO_TCP, len(header) + len(payload))
            checksum = internet_checksum(pseudo + header + payload)
        return header[:16] + _U16.pack(checksum) + header[18:]

    @classmethod
    def parse(cls, data: bytes) -> Tuple["TCP", bytes]:
        if len(data) < cls.HDR_LEN:
            raise PacketError("truncated TCP header")
        sport, dport, seq, ack, offset_byte, flags, window, __, __ = _TCP.unpack_from(data)
        data_offset = (offset_byte >> 4) * 4
        if data_offset < cls.HDR_LEN or len(data) < data_offset:
            raise PacketError("bad TCP data offset")
        return cls(sport, dport, seq, ack, flags, window), data[data_offset:]

    def has(self, flag: int) -> bool:
        return bool(self.flags & flag)


@dataclass
class ICMP:
    """ICMP header (8 bytes: type, code, checksum, rest-of-header)."""

    icmp_type: int
    code: int = 0
    ident: int = 0
    seq: int = 0

    HDR_LEN = 8

    def pack(self, payload: bytes = b"") -> bytes:
        header = _ICMP.pack(self.icmp_type, self.code, 0, self.ident, self.seq)
        checksum = internet_checksum(header + payload)
        return header[:2] + _U16.pack(checksum) + header[4:]

    @classmethod
    def parse(cls, data: bytes) -> Tuple["ICMP", bytes]:
        if len(data) < cls.HDR_LEN:
            raise PacketError("truncated ICMP header")
        icmp_type, code, __, ident, seq = _ICMP.unpack_from(data)
        return cls(icmp_type, code, ident, seq), data[8:]


L3Header = Union[ARP, IPv4]
L4Header = Union[TCP, UDP, ICMP]


@dataclass
class Packet:
    """A fully-parsed frame: stacked headers plus opaque payload bytes.

    ``Packet`` is the view used by the slow path (analogous to parsed
    ``sk_buff`` fields); the raw frame from :meth:`to_bytes` is what XDP-level
    code sees.
    """

    eth: Ethernet
    vlan: Optional[VlanTag] = None
    ip: Optional[IPv4] = None
    arp: Optional[ARP] = None
    l4: Optional[L4Header] = None
    payload: bytes = b""

    def to_bytes(self) -> bytes:
        """Serialize the frame, recomputing lengths and checksums."""
        parts: List[bytes] = []
        l4_bytes = b""
        if self.l4 is not None:
            if self.ip is None:
                raise PacketError("L4 header without IPv4 header")
            if isinstance(self.l4, UDP):
                l4_bytes = self.l4.pack(self.payload, self.ip.src, self.ip.dst)
            elif isinstance(self.l4, TCP):
                l4_bytes = self.l4.pack(self.payload, self.ip.src, self.ip.dst)
            else:
                l4_bytes = self.l4.pack(self.payload)
        body = l4_bytes + self.payload

        if self.arp is not None:
            parts.append(self.arp.pack())
        elif self.ip is not None:
            parts.append(self.ip.pack(payload_len=len(body)))
            parts.append(body)
        else:
            parts.append(self.payload)

        inner = b"".join(parts)
        # Derive the payload ethertype from content so that adding/stripping
        # a VLAN tag after parsing still serializes correctly.
        inner_type = self.eth.ethertype
        if self.arp is not None:
            inner_type = ETH_P_ARP
        elif self.ip is not None:
            inner_type = ETH_P_IP
        elif inner_type == ETH_P_8021Q and self.vlan is not None:
            inner_type = self.vlan.ethertype
        eth = self.eth
        if self.vlan is not None:
            tag = replace(self.vlan, ethertype=inner_type)
            return _pack_eth(eth.dst, eth.src, ETH_P_8021Q) + tag.pack() + inner
        return _pack_eth(eth.dst, eth.src, inner_type) + inner

    @classmethod
    def from_bytes(cls, data: bytes) -> "Packet":
        """Parse a raw frame into stacked headers.

        Parsing runs over a ``memoryview`` so the remainder handed from
        layer to layer is an O(1) slice instead of a copy of the frame's
        tail at every header boundary; only the final payload is
        materialized as ``bytes``.
        """
        view = memoryview(data)
        eth, rest = Ethernet.parse(view)
        vlan: Optional[VlanTag] = None
        ethertype = eth.ethertype
        if ethertype == ETH_P_8021Q:
            vlan, rest = VlanTag.parse(rest)
            ethertype = vlan.ethertype

        pkt = cls(eth=eth, vlan=vlan)
        if ethertype == ETH_P_ARP:
            pkt.arp, rest = ARP.parse(rest)
            pkt.payload = bytes(rest)
            return pkt
        if ethertype != ETH_P_IP:
            pkt.payload = bytes(rest)
            return pkt

        pkt.ip, rest = IPv4.parse(rest)
        if pkt.ip.is_fragment and pkt.ip.frag_offset != 0:
            pkt.payload = bytes(rest)
            return pkt
        if pkt.ip.proto == IPPROTO_UDP:
            pkt.l4, tail = UDP.parse(rest)
            pkt.payload = bytes(tail)
        elif pkt.ip.proto == IPPROTO_TCP:
            pkt.l4, tail = TCP.parse(rest)
            pkt.payload = bytes(tail)
        elif pkt.ip.proto == IPPROTO_ICMP:
            pkt.l4, tail = ICMP.parse(rest)
            pkt.payload = bytes(tail)
        else:
            pkt.payload = bytes(rest)
        return pkt

    @property
    def frame_len(self) -> int:
        return len(self.to_bytes())

    def clone(self) -> "Packet":
        return Packet.from_bytes(self.to_bytes())


# the L4 header length Packet.from_bytes requires, by protocol
_L4_MIN = {IPPROTO_UDP: UDP.HDR_LEN, IPPROTO_ICMP: ICMP.HDR_LEN, IPPROTO_TCP: TCP.HDR_LEN}
# ethertype, version/IHL, total length, flags/fragment offset, protocol,
# src, dst of an untagged frame's first 34 bytes
_IPV4_FIELDS = struct.Struct("!12xHBxHxxHxB2xII")


def ipv4_fields(frame: bytes) -> Optional[Tuple[int, int, int]]:
    """``(src, dst, proto)`` of a plain IPv4 frame, read without parsing it.

    Accepts only an untagged IPv4 frame with a 20-byte header that
    :meth:`Packet.from_bytes` parses without error: a valid header
    checksum, a total length of at least 20 that fits in the frame, and,
    unless the frame is a later fragment, the UDP, ICMP or TCP header
    present (a TCP data offset included). Returns None for every other
    frame, which only :meth:`Packet.from_bytes` may judge.
    """
    if len(frame) < 34:
        return None
    ethertype, ver_ihl, total, flags_frag, proto, src, dst = _IPV4_FIELDS.unpack_from(frame)
    if (
        ethertype != ETH_P_IP
        or ver_ihl != 0x45
        or not IPv4.HDR_LEN <= total <= len(frame) - 14
        or internet_checksum(frame[14:34])
    ):
        return None
    if not flags_frag & 0x1FFF:  # not a later fragment: the L4 header follows
        body = total - IPv4.HDR_LEN
        if body < _L4_MIN.get(proto, 0):
            return None
        if proto == IPPROTO_TCP and not TCP.HDR_LEN <= (frame[46] >> 4) * 4 <= body:
            return None
    return src, dst, proto


# total length, flags/fragment offset and header checksum of an untagged
# IPv4 frame
_IPV4_REST = struct.Struct("!16xH2xH2xH")


def round_trips(frame: bytes) -> bool:
    """True when ``Packet.from_bytes(frame).to_bytes() == frame``, judged
    from the bytes alone.

    Accepts only what :func:`ipv4_fields` reads that serialises back
    unchanged: a whole, unpadded, unfragmented UDP or TCP datagram whose IP
    and L4 checksums verify and are the ones :meth:`IPv4.pack`,
    :meth:`UDP.pack` and :meth:`TCP.pack` compute. Of a checksum's two
    encodings of zero, those write 0x0000 (0xFFFF for UDP), so the other
    is declined, as are a UDP length or checksum of 0, TCP options,
    reserved bits and an urgent pointer, which ``pack`` recomputes or
    drops. The L4 checksum costs as much as a parse, so callers run this
    only where it saves a parse or a serialisation.
    """
    fields = ipv4_fields(frame)
    if fields is None:
        return False
    total, flags_frag, ip_sum = _IPV4_REST.unpack_from(frame)
    proto = fields[2]
    if len(frame) != 14 + total or flags_frag & 0x3FFF or ip_sum == 0xFFFF:
        return False
    if proto == IPPROTO_UDP:
        length = frame[38] << 8 | frame[39]
        if not length or frame[40:42] == b"\x00\x00":
            return False
    elif proto == IPPROTO_TCP:
        if frame[46] != 0x50 or frame[50:52] == b"\xff\xff" or frame[52:54] != b"\x00\x00":
            return False
        length = total - IPv4.HDR_LEN
    else:
        return False
    # the one's-complement sum of 16-bit words is the sum modulo 0xFFFF of
    # the integers the byte strings spell (2**16 == 1 mod 0xFFFF), so the
    # pseudo header and segment add up without being joined
    segment = int.from_bytes(frame[34:], "big")
    if total & 1:
        segment <<= 8
    return (int.from_bytes(frame[26:34], "big") + proto + length + segment) % 0xFFFF == 0


def with_ttl(frame: bytes, offset: int, header_len: int, ttl: int) -> bytes:
    """``frame`` with ``ttl`` and the header checksum :meth:`IPv4.pack`
    computes written into its IPv4 header of ``header_len`` bytes at
    ``offset``. No L4 checksum covers the TTL."""
    end = offset + header_len
    header = bytearray(frame[offset:end])
    header[8] = ttl
    header[10] = header[11] = 0
    checksum = internet_checksum(header)
    header[10] = checksum >> 8
    header[11] = checksum & 0xFF
    return frame[:offset] + header + frame[end:]


def make_udp(
    src_mac: Union[str, MacAddr],
    dst_mac: Union[str, MacAddr],
    src_ip: Union[str, IPv4Addr],
    dst_ip: Union[str, IPv4Addr],
    sport: int = 1234,
    dport: int = 5678,
    payload: bytes = b"",
    ttl: int = 64,
    vlan: Optional[int] = None,
) -> Packet:
    """Convenience constructor for a UDP-over-IPv4 Ethernet frame."""
    return Packet(
        eth=Ethernet(dst=mac(dst_mac), src=mac(src_mac), ethertype=ETH_P_IP),
        vlan=VlanTag(vid=vlan) if vlan is not None else None,
        ip=IPv4(src=ipv4(src_ip), dst=ipv4(dst_ip), proto=IPPROTO_UDP, ttl=ttl),
        l4=UDP(sport=sport, dport=dport),
        payload=payload,
    )


def make_tcp(
    src_mac: Union[str, MacAddr],
    dst_mac: Union[str, MacAddr],
    src_ip: Union[str, IPv4Addr],
    dst_ip: Union[str, IPv4Addr],
    sport: int = 1234,
    dport: int = 5678,
    flags: int = TCP.ACK,
    payload: bytes = b"",
    ttl: int = 64,
) -> Packet:
    """Convenience constructor for a TCP-over-IPv4 Ethernet frame."""
    return Packet(
        eth=Ethernet(dst=mac(dst_mac), src=mac(src_mac), ethertype=ETH_P_IP),
        ip=IPv4(src=ipv4(src_ip), dst=ipv4(dst_ip), proto=IPPROTO_TCP, ttl=ttl),
        l4=TCP(sport=sport, dport=dport, flags=flags),
        payload=payload,
    )


def make_arp_request(
    sender_mac: Union[str, MacAddr],
    sender_ip: Union[str, IPv4Addr],
    target_ip: Union[str, IPv4Addr],
) -> Packet:
    """An ARP who-has broadcast frame."""
    smac = mac(sender_mac)
    return Packet(
        eth=Ethernet(dst=MacAddr.broadcast(), src=smac, ethertype=ETH_P_ARP),
        arp=ARP(
            opcode=ARP_REQUEST,
            sender_mac=smac,
            sender_ip=ipv4(sender_ip),
            target_mac=MacAddr(0),
            target_ip=ipv4(target_ip),
        ),
    )


def make_arp_reply(
    sender_mac: Union[str, MacAddr],
    sender_ip: Union[str, IPv4Addr],
    target_mac: Union[str, MacAddr],
    target_ip: Union[str, IPv4Addr],
) -> Packet:
    """A unicast ARP is-at reply frame."""
    smac, tmac = mac(sender_mac), mac(target_mac)
    return Packet(
        eth=Ethernet(dst=tmac, src=smac, ethertype=ETH_P_ARP),
        arp=ARP(
            opcode=ARP_REPLY,
            sender_mac=smac,
            sender_ip=ipv4(sender_ip),
            target_mac=tmac,
            target_ip=ipv4(target_ip),
        ),
    )
