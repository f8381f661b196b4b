"""IPv4 fragmentation and reassembly.

Table I assigns "IP (de)fragmentation" to the slow path; this module makes
that row real: the stack fragments oversized egress datagrams at the
interface MTU and reassembles inbound fragments before local delivery,
with the usual 30 s reassembly timeout. Fast paths always punt fragments
(``frag != 0`` checks in the FPM templates), so every fragment exercises
this code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netsim.addresses import IPv4Addr
from repro.netsim.clock import Clock
from repro.netsim.packet import IPv4, Packet

REASSEMBLY_TIMEOUT_NS = 30 * 1_000_000_000
MAX_FRAGMENT_QUEUES = 256

FragKey = Tuple[IPv4Addr, IPv4Addr, int, int]  # src, dst, proto, ident


@dataclass
class _FragmentQueue:
    created_ns: int
    # offset (bytes) -> payload bytes
    pieces: Dict[int, bytes] = field(default_factory=dict)
    total_len: Optional[int] = None  # set by the last fragment
    first_header: Optional[IPv4] = None

    def add(self, ip: IPv4, body: bytes) -> None:
        offset = ip.frag_offset * 8
        self.pieces[offset] = body
        if ip.frag_offset == 0:
            self.first_header = ip
        if not ip.more_fragments:
            self.total_len = offset + len(body)

    def complete(self) -> bool:
        if self.total_len is None or self.first_header is None:
            return False
        have = 0
        for offset in sorted(self.pieces):
            if offset > have:
                return False  # hole
            have = max(have, offset + len(self.pieces[offset]))
        return have >= self.total_len

    def payload(self) -> bytes:
        out = bytearray(self.total_len)
        for offset, body in self.pieces.items():
            out[offset : offset + len(body)] = body[: self.total_len - offset]
        return bytes(out)


class Reassembler:
    """Per-kernel inbound fragment reassembly."""

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._queues: Dict[FragKey, _FragmentQueue] = {}
        self.reassembled = 0
        self.timed_out = 0

    def push(self, pkt: Packet) -> Optional[Packet]:
        """Feed one fragment; returns the reassembled packet when complete."""
        ip = pkt.ip
        key: FragKey = (ip.src, ip.dst, ip.proto, ip.ident)
        queue = self._queues.get(key)
        if queue is None:
            if len(self._queues) >= MAX_FRAGMENT_QUEUES:
                self.gc(force_oldest=True)
            queue = _FragmentQueue(created_ns=self._clock.now_ns)
            self._queues[key] = queue
        # the L4 header of the first fragment is parsed into pkt.l4; fold it
        # back into the raw body so offsets line up
        body = pkt.payload
        if ip.frag_offset == 0 and pkt.l4 is not None:
            raw = pkt.to_bytes()
            header_len = 14 + (4 if pkt.vlan else 0) + ip.header_len
            body = raw[header_len:]
        queue.add(ip, body)
        if not queue.complete():
            return None
        payload = queue.payload()
        del self._queues[key]
        self.reassembled += 1
        header = queue.first_header
        whole = Packet(
            eth=pkt.eth,
            vlan=pkt.vlan,
            ip=IPv4(src=header.src, dst=header.dst, proto=header.proto, ttl=header.ttl,
                    tos=header.tos, ident=header.ident, options=header.options),
            payload=payload,
        )
        # reparse so the L4 header materializes
        return Packet.from_bytes(whole.to_bytes())

    def gc(self, force_oldest: bool = False) -> int:
        """Expire stale queues; returns the number dropped."""
        now = self._clock.now_ns
        stale = [k for k, q in self._queues.items() if now - q.created_ns > REASSEMBLY_TIMEOUT_NS]
        if force_oldest and not stale and self._queues:
            stale = [min(self._queues, key=lambda k: self._queues[k].created_ns)]
        for key in stale:
            del self._queues[key]
            self.timed_out += 1
        return len(stale)

    def pending(self) -> int:
        return len(self._queues)


def fragment(pkt: Packet, mtu: int) -> List[Packet]:
    """Split an IPv4 packet into MTU-sized fragments (DF honored).

    The fragments carry no IP options: Linux copies into every fragment the
    options whose copied flag is set, which this simulator does not.
    """
    ip = pkt.ip
    raw = pkt.to_bytes()
    body = raw[14 + (4 if pkt.vlan else 0) + ip.header_len:]
    if len(body) + ip.header_len <= mtu:
        return [pkt]
    if ip.flags & 0x2:  # DF
        return []
    chunk = ((mtu - IPv4.HDR_LEN) // 8) * 8
    fragments: List[Packet] = []
    offset = 0
    while offset < len(body):
        piece = body[offset : offset + chunk]
        more = offset + len(piece) < len(body)
        frag_ip = IPv4(
            src=ip.src, dst=ip.dst, proto=ip.proto, ttl=ip.ttl, tos=ip.tos,
            ident=ip.ident, flags=0x1 if more else 0x0, frag_offset=offset // 8,
        )
        fragments.append(Packet(eth=pkt.eth, vlan=pkt.vlan, ip=frag_ip, payload=piece))
        offset += len(piece)
    return fragments
