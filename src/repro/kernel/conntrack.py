"""Connection tracking.

Tracks flows by 5-tuple with the usual NEW → ESTABLISHED lifecycle and
timeout-based expiry on the simulated clock. Used by ipvs (NAT'd flows must
hit the same real server) and available to stateful filtering. Per Table I
of the paper, conntrack *lookup/update* is fast-path work while entry
creation and lifecycle handling stay in the slow path.

Pressure semantics mirror ``nf_conntrack_max``: the table has an optional
capacity (wired to the ``net.netfilter.nf_conntrack_max`` sysctl by the
kernel). At capacity, new insertions first attempt a Linux-style *early
drop* — evicting a closing or unreplied (non-ESTABLISHED) entry — before
giving up. Advisory tracking (:meth:`Conntrack.track`) fails *open*: the
packet proceeds untracked and the refusal is counted in ``insert_failed``.
Required allocation (:meth:`Conntrack.create`, used by ipvs NAT pinning)
raises :class:`ConntrackFull`, which the stack converts to a counted
``conntrack_full`` drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.netsim.addresses import IPv4Addr
from repro.netsim.clock import Clock
from repro.netsim.packet import IPPROTO_TCP, TCP, UDP
from repro.netsim.skbuff import SKBuff

CT_NEW = "NEW"
CT_ESTABLISHED = "ESTABLISHED"
CT_CLOSED = "CLOSED"

UDP_TIMEOUT_NS = 30 * 1_000_000_000
TCP_TIMEOUT_NS = 300 * 1_000_000_000
# FIN/RST-closed flows must not linger for the full established timeout;
# mirrors nf_conntrack_tcp_timeout_close.
TCP_CLOSE_TIMEOUT_NS = 10 * 1_000_000_000


@dataclass(frozen=True)
class ConnTuple:
    src: IPv4Addr
    dst: IPv4Addr
    proto: int
    sport: int
    dport: int

    def reversed(self) -> "ConnTuple":
        return ConnTuple(self.dst, self.src, self.proto, self.dport, self.sport)

    @classmethod
    def from_skb(cls, skb: SKBuff) -> Optional["ConnTuple"]:
        ip = skb.pkt.ip
        l4 = skb.pkt.l4
        if ip is None or not isinstance(l4, (TCP, UDP)):
            return None
        return cls(ip.src, ip.dst, ip.proto, l4.sport, l4.dport)


@dataclass
class ConnEntry:
    tuple: ConnTuple
    state: str = CT_NEW
    created_ns: int = 0
    updated_ns: int = 0
    packets: int = 0
    # NAT rewrite installed by ipvs: packets of this flow go to (ip, port)
    dnat_to: Optional[Tuple[IPv4Addr, int]] = None

    def timeout_ns(self) -> int:
        if self.tuple.proto != IPPROTO_TCP:
            return UDP_TIMEOUT_NS
        if self.state == CT_CLOSED:
            return TCP_CLOSE_TIMEOUT_NS
        return TCP_TIMEOUT_NS


class ConntrackFull(RuntimeError):
    """The table is at ``nf_conntrack_max`` and early-drop found no victim."""


class Conntrack:
    """The conntrack table for one kernel: one table shared by every CPU,
    like Linux's global ``nf_conntrack_hash``. Capacity is
    ``nf_conntrack_max``."""

    def __init__(self, clock: Clock, max_entries: Optional[int] = None) -> None:
        self._clock = clock
        self._table: Dict[ConnTuple, ConnEntry] = {}
        #: ``nf_conntrack_max``; None = unlimited.
        self.max_entries = max_entries
        #: Entries evicted early (closing/unreplied) to admit new flows.
        self.early_drops = 0
        #: Advisory insertions refused because the table was full.
        self.insert_failed = 0

    def _has_room(self) -> bool:
        """True once there is room for one more entry, early-dropping a
        closing or unreplied victim if the table is at capacity.

        Mirrors nf_conntrack's early_drop(): ESTABLISHED entries are never
        victims; among the rest, CLOSED flows go before unreplied NEW ones,
        oldest (least-recently updated) first.
        """
        if self.max_entries is None or len(self) < self.max_entries:
            return True
        victim = None
        for entry in self._table.values():
            if entry.state == CT_ESTABLISHED:
                continue
            rank = (0 if entry.state == CT_CLOSED else 1, entry.updated_ns)
            if victim is None or rank < victim[0]:
                victim = (rank, entry)
        if victim is None:
            return False
        self.remove(victim[1].tuple)
        self.early_drops += 1
        return len(self) < self.max_entries

    def __len__(self) -> int:
        return len(self._table)

    def lookup(self, tup: ConnTuple) -> Optional[ConnEntry]:
        """Find the entry for a tuple in either direction, expiring stale ones."""
        entry = self._table.get(tup) or self._table.get(tup.reversed())
        if entry is None:
            return None
        if self._clock.now_ns - entry.updated_ns > entry.timeout_ns():
            self.remove(entry.tuple)
            return None
        return entry

    def track(self, skb: SKBuff) -> Optional[ConnEntry]:
        """Slow-path tracking: create/confirm the entry for this packet."""
        tup = ConnTuple.from_skb(skb)
        if tup is None:
            return None
        entry = self.lookup(tup)
        now = self._clock.now_ns
        if entry is None:
            if not self._has_room():
                # Advisory tracking fails open: the packet proceeds
                # untracked (matches ct_state NEW deterministically) and the
                # refusal stays visible in the pressure counter.
                self.insert_failed += 1
                return None
            entry = ConnEntry(tuple=tup, created_ns=now, updated_ns=now)
            self._table[tup] = entry
        else:
            # A packet in the reverse direction confirms the connection.
            if entry.state == CT_NEW and tup == entry.tuple.reversed():
                entry.state = CT_ESTABLISHED
            entry.updated_ns = now
        entry.packets += 1
        skb.conntrack = entry
        if isinstance(skb.pkt.l4, TCP) and skb.pkt.l4.has(TCP.FIN | TCP.RST):
            entry.state = CT_CLOSED
        return entry

    def create(self, tup: ConnTuple) -> ConnEntry:
        """Required allocation (ipvs NAT pinning): the caller cannot proceed
        without an entry, so a full table raises :class:`ConntrackFull`
        instead of failing open."""
        entry = self.lookup(tup)
        if entry is not None:
            return entry
        if not self._has_room():
            self.insert_failed += 1
            raise ConntrackFull(
                f"conntrack table full ({self.max_entries} entries) and no early-drop victim"
            )
        now = self._clock.now_ns
        entry = ConnEntry(tuple=tup, created_ns=now, updated_ns=now)
        self._table[tup] = entry
        return entry

    def remove(self, tup: ConnTuple) -> None:
        self._table.pop(tup, None)
        self._table.pop(tup.reversed(), None)

    def gc(self) -> int:
        """Expire timed-out entries; returns count removed."""
        now = self._clock.now_ns
        expired = [t for t, e in self._table.items() if now - e.updated_ns > e.timeout_ns()]
        for tup in expired:
            del self._table[tup]
        return len(expired)

    def entries(self) -> List[ConnEntry]:
        return list(self._table.values())
