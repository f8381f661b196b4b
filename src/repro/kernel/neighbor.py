"""The neighbor (ARP) table.

Entries move through a simplified version of the Linux neighbor state
machine: ``INCOMPLETE`` (resolution in flight, packets queued) →
``REACHABLE`` → ``STALE`` (after the reachable timeout) and can fail. The
fast path reads this table through the ``bpf_fib_lookup`` helper; resolution
itself (sending ARP requests, queueing packets) is slow-path work, exactly as
Table I of the paper prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netsim.addresses import AddrLike, IPv4Addr, MacAddr, ipv4
from repro.netsim.clock import Clock

NUD_INCOMPLETE = 0x01
NUD_REACHABLE = 0x02
NUD_STALE = 0x04
NUD_FAILED = 0x20
NUD_PERMANENT = 0x80

REACHABLE_TIME_NS = 30 * 1_000_000_000
MAX_QUEUE = 101  # packets parked per unresolved neighbor (Linux queues ~101)


@dataclass
class NeighborEntry:
    ip: IPv4Addr
    ifindex: int
    lladdr: Optional[MacAddr] = None
    state: int = NUD_INCOMPLETE
    updated_ns: int = 0
    queued: List[object] = field(default_factory=list)


class NeighborTable:
    """Per-kernel ARP cache keyed by (ifindex, ip)."""

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._entries: Dict[Tuple[int, IPv4Addr], NeighborEntry] = {}

    def lookup(self, ifindex: int, ip: AddrLike) -> Optional[NeighborEntry]:
        entry = self._entries.get((ifindex, ipv4(ip)))
        if entry is None:
            return None
        if (
            entry.state == NUD_REACHABLE
            and self._clock.now_ns - entry.updated_ns > REACHABLE_TIME_NS
        ):
            entry.state = NUD_STALE
        return entry

    def resolved(self, ifindex: int, ip: AddrLike) -> Optional[MacAddr]:
        """The MAC for a neighbor if usable (REACHABLE/STALE/PERMANENT)."""
        entry = self.lookup(ifindex, ip)
        if entry is None or entry.lladdr is None:
            return None
        if entry.state & (NUD_REACHABLE | NUD_STALE | NUD_PERMANENT):
            return entry.lladdr
        return None

    def create_incomplete(self, ifindex: int, ip: AddrLike) -> NeighborEntry:
        key = (ifindex, ipv4(ip))
        entry = self._entries.get(key)
        if entry is None:
            entry = NeighborEntry(ip=ipv4(ip), ifindex=ifindex, updated_ns=self._clock.now_ns)
            self._entries[key] = entry
        return entry

    def queue_packet(self, entry: NeighborEntry, skb: object) -> bool:
        """Park a packet awaiting resolution; False when the queue is full."""
        if len(entry.queued) >= MAX_QUEUE:
            return False
        entry.queued.append(skb)
        return True

    def update(
        self,
        ifindex: int,
        ip: AddrLike,
        lladdr: MacAddr,
        state: int = NUD_REACHABLE,
    ) -> List[object]:
        """Confirm a neighbor; returns any packets queued awaiting it."""
        key = (ifindex, ipv4(ip))
        entry = self._entries.get(key)
        if entry is None:
            entry = NeighborEntry(ip=ipv4(ip), ifindex=ifindex)
            self._entries[key] = entry
        entry.lladdr = lladdr
        entry.state = state
        entry.updated_ns = self._clock.now_ns
        drained, entry.queued = entry.queued, []
        return drained

    def fail(self, ifindex: int, ip: AddrLike) -> List[object]:
        """Mark resolution failed; returns (and drops) queued packets."""
        entry = self._entries.get((ifindex, ipv4(ip)))
        if entry is None:
            return []
        entry.state = NUD_FAILED
        dropped, entry.queued = entry.queued, []
        return dropped

    def remove(self, ifindex: int, ip: AddrLike) -> None:
        self._entries.pop((ifindex, ipv4(ip)), None)

    def flush_ifindex(self, ifindex: int) -> None:
        stale = [k for k in self._entries if k[0] == ifindex]
        for key in stale:
            del self._entries[key]

    def entries(self) -> List[NeighborEntry]:
        return list(self._entries.values())
