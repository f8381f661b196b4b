"""Frame construction and the outcome oracle, independent of ``repro``.

The generator builds every input frame here with ``struct`` and predicts
the bytes the device under test must emit, so the checker never asks the
program under test what the right answer is.
"""

from __future__ import annotations

import socket
import struct
from typing import Optional, Tuple

ETH_P_IP = 0x0800
IPPROTO_ICMP = 1
IPPROTO_UDP = 17
ETH_HDR = 14
IP_HDR = 20
UDP_HDR = 8

_IP = struct.Struct("!BBHHHBBH4s4s")
_UDP = struct.Struct("!HHHH")


def ip_bytes(dotted: str) -> bytes:
    return socket.inet_aton(dotted)


def internet_checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def udp_frame(
    src_mac: bytes,
    dst_mac: bytes,
    src_ip: str,
    dst_ip: str,
    sport: int,
    dport: int,
    size: int = 64,
    ttl: int = 64,
    ident: int = 0,
) -> bytes:
    """An Ethernet/IPv4/UDP frame of exactly ``size`` bytes (zero payload,
    UDP checksum 0 as IPv4 allows)."""
    payload_len = size - ETH_HDR - IP_HDR - UDP_HDR
    if payload_len < 0:
        raise ValueError(f"frame size {size} below the 42-byte header stack")
    header = _IP.pack(
        0x45, 0, IP_HDR + UDP_HDR + payload_len, ident, 0, ttl, IPPROTO_UDP, 0,
        ip_bytes(src_ip), ip_bytes(dst_ip),
    )
    header = header[:10] + struct.pack("!H", internet_checksum(header)) + header[12:]
    udp = _UDP.pack(sport, dport, UDP_HDR + payload_len, 0)
    return dst_mac + src_mac + struct.pack("!H", ETH_P_IP) + header + udp + bytes(payload_len)


def forwarded(frame: bytes, egress_mac: bytes, next_hop_mac: bytes) -> bytes:
    """What a router emits for ``frame``: next-hop MAC rewrite, TTL - 1 and
    the RFC 1624 incremental checksum update."""
    ttl = frame[22]
    csum = struct.unpack_from("!H", frame, 24)[0] + 0x100
    csum = (csum & 0xFFFF) + (csum >> 16)
    return (
        next_hop_mac + egress_mac + frame[12:22] + bytes([ttl - 1]) + frame[23:24]
        + struct.pack("!H", csum) + frame[26:]
    )


def forward_ok(got: bytes, sent: bytes, egress_mac: bytes, next_hop_mac: bytes) -> bool:
    """Semantic check of a forwarded frame when its bytes differ from
    :func:`forwarded` (the checksum has two encodings of zero): MACs
    rewritten, TTL decremented, header checksum valid, all else intact."""
    return (
        len(got) == len(sent)
        and got[0:6] == next_hop_mac
        and got[6:12] == egress_mac
        and got[12:22] == sent[12:22]
        and got[22] == sent[22] - 1
        and got[23] == sent[23]
        and got[26:] == sent[26:]
        and internet_checksum(got[14:34]) == 0
    )


def icmp_error(frame: bytes) -> Optional[Tuple[int, int, bytes]]:
    """(type, code, quote key) of an ICMP error frame, else None. The quote
    key is the quoted header's ident, protocol and addresses — the fields
    that identify which input frame the error answers."""
    if len(frame) < 62 or frame[12:14] != b"\x08\x00" or frame[23] != IPPROTO_ICMP:
        return None
    ihl = (frame[14] & 0x0F) * 4
    icmp = 14 + ihl
    quote = frame[icmp + 8 : icmp + 28]
    if len(quote) < 20:
        return None
    return frame[icmp], frame[icmp + 1], quote_key(quote)


def quote_key(ip_header: bytes) -> bytes:
    return ip_header[4:6] + ip_header[9:10] + ip_header[12:20]
