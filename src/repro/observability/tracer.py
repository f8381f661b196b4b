"""pwru-style packet tracing through the simulated pipeline.

Arm the tracer with a :class:`TraceFilter`; every matching packet then
accumulates its journey — profiler stage names, hook verdicts, FPM ids,
and the terminal outcome or drop reason — into a
:class:`PacketTrace`. Completed traces land in a bounded ring buffer with
overflow accounting, so tracing a busy pipeline can never grow memory.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.netsim.addresses import IPv4Prefix
from repro.netsim.clock import Clock
from repro.netsim.packet import IPPROTO_TCP, IPPROTO_UDP, TCP, UDP

DEFAULT_RING_CAPACITY = 256
DEFAULT_MAX_EVENTS = 64

_PROTO_NAMES = {IPPROTO_TCP: "tcp", IPPROTO_UDP: "udp", 1: "icmp"}
_PROTO_NUMBERS = {name: num for num, name in _PROTO_NAMES.items()}


class TraceFilterError(ValueError):
    """Bad filter expression."""


class TraceFilter:
    """pwru-style match: src/dst prefix, proto, ports, ingress device."""

    def __init__(
        self,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        proto: Optional[int] = None,
        sport: Optional[int] = None,
        dport: Optional[int] = None,
        dev: Optional[str] = None,
    ) -> None:
        self.src = self._prefix(src)
        self.dst = self._prefix(dst)
        self.proto = proto
        self.sport = sport
        self.dport = dport
        self.dev = dev

    @staticmethod
    def _prefix(text: Optional[str]) -> Optional[IPv4Prefix]:
        if text is None:
            return None
        if "/" not in text:
            text = f"{text}/32"
        return IPv4Prefix.parse(text)

    @classmethod
    def parse(cls, expression: str) -> "TraceFilter":
        """``"src=10.0.0.0/8,proto=udp,dport=9,dev=eth0"`` → a filter."""
        kwargs: dict = {}
        for part in filter(None, (p.strip() for p in expression.split(","))):
            if "=" not in part:
                raise TraceFilterError(f"bad filter term {part!r} (want key=value)")
            key, value = part.split("=", 1)
            if key in ("src", "dst", "dev"):
                kwargs[key] = value
            elif key == "proto":
                kwargs[key] = _PROTO_NUMBERS.get(value.lower())
                if kwargs[key] is None:
                    try:
                        kwargs[key] = int(value)
                    except ValueError:
                        raise TraceFilterError(f"unknown proto {value!r}") from None
            elif key in ("sport", "dport"):
                kwargs[key] = int(value)
            else:
                raise TraceFilterError(f"unknown filter key {key!r}")
        return cls(**kwargs)

    def matches(self, pkt, dev_name: Optional[str]) -> bool:
        if self.dev is not None and dev_name != self.dev:
            return False
        needs_l3 = self.src or self.dst or self.proto is not None
        needs_l4 = self.sport is not None or self.dport is not None
        if pkt is None or pkt.ip is None:
            return not needs_l3 and not needs_l4
        ip = pkt.ip
        if self.src is not None and not self.src.contains(ip.src):
            return False
        if self.dst is not None and not self.dst.contains(ip.dst):
            return False
        if self.proto is not None and ip.proto != self.proto:
            return False
        if needs_l4:
            l4 = pkt.l4
            if not isinstance(l4, (TCP, UDP)):
                return False
            if self.sport is not None and l4.sport != self.sport:
                return False
            if self.dport is not None and l4.dport != self.dport:
                return False
        return True


class TraceEvent:
    __slots__ = ("ns", "stage", "detail")

    def __init__(self, ns: int, stage: str, detail: str = "") -> None:
        self.ns = ns
        self.stage = stage
        self.detail = detail

    def __repr__(self) -> str:
        return f"TraceEvent({self.ns}, {self.stage!r}, {self.detail!r})"


def describe_packet(pkt) -> str:
    """``10.0.1.2:1234 > 10.100.0.1:9 udp ttl=64`` — the trace headline."""
    if pkt is None:
        return "(unparsed frame)"
    if pkt.ip is None:
        if pkt.arp is not None:
            return f"arp {pkt.arp.sender_ip} > {pkt.arp.target_ip}"
        return f"ethertype 0x{pkt.eth.ethertype:04x}"
    ip = pkt.ip
    proto = _PROTO_NAMES.get(ip.proto, str(ip.proto))
    l4 = pkt.l4
    if isinstance(l4, (TCP, UDP)):
        return f"{ip.src}:{l4.sport} > {ip.dst}:{l4.dport} {proto} ttl={ip.ttl}"
    return f"{ip.src} > {ip.dst} {proto} ttl={ip.ttl}"


class PacketTrace:
    """One traced packet's journey through the pipeline."""

    __slots__ = ("trace_id", "kind", "dev", "summary", "start_ns", "end_ns",
                 "outcome", "events", "truncated_events")

    def __init__(self, trace_id: int, kind: str, dev: Optional[str], summary: str, start_ns: int) -> None:
        self.trace_id = trace_id
        self.kind = kind  # "rx" | "tx"
        self.dev = dev
        self.summary = summary
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.outcome: Optional[str] = None
        self.events: List[TraceEvent] = []
        self.truncated_events = 0

    def elapsed_ns(self) -> int:
        return (self.end_ns or self.start_ns) - self.start_ns

    def render(self) -> List[str]:
        header = f"#{self.trace_id} {self.kind} dev={self.dev or '-'} {self.summary}"
        header += f" -> {self.outcome or '?'} (+{self.elapsed_ns()}ns)"
        lines = [header]
        for event in self.events:
            offset = event.ns - self.start_ns
            detail = f" {event.detail}" if event.detail else ""
            lines.append(f"  {offset:>8}ns {event.stage}{detail}")
        if self.truncated_events:
            lines.append(f"  ... {self.truncated_events} event(s) truncated")
        return lines


class PacketTracer:
    """The armed filter, the in-flight trace stack, and the bounded ring."""

    def __init__(
        self,
        clock: Clock,
        capacity: int = DEFAULT_RING_CAPACITY,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        self.clock = clock
        self.capacity = capacity
        self.max_events = max_events
        self.armed = False
        self.filter: Optional[TraceFilter] = None
        self.ring: Deque[PacketTrace] = deque()
        self.overflowed = 0  # completed traces evicted from the full ring
        self.matched = 0
        self._active: List[PacketTrace] = []
        self._next_id = 1

    # -------------------------------------------------------------- control

    def arm(self, filter: Optional[TraceFilter] = None, capacity: Optional[int] = None) -> None:
        """Start capturing packets matching ``filter`` (None = everything)."""
        self.filter = filter
        if capacity is not None:
            if capacity < 1:
                raise ValueError("ring capacity must be >= 1")
            self.capacity = capacity
        self.armed = True

    def disarm(self) -> None:
        self.armed = False
        self.filter = None
        self._active.clear()

    def clear(self) -> None:
        self.ring.clear()
        self.overflowed = 0
        self.matched = 0

    @property
    def recording(self) -> bool:
        """True while a matched packet is in flight (events are welcome)."""
        return bool(self._active)

    # ------------------------------------------------------------- lifecycle

    def begin(self, kind: str, dev_name: Optional[str], pkt) -> Optional[PacketTrace]:
        """Open a trace for a pipeline entry; returns a token or None."""
        if not self.armed:
            return None
        if self.filter is not None and not self.filter.matches(pkt, dev_name):
            return None
        trace = PacketTrace(
            trace_id=self._next_id,
            kind=kind,
            dev=dev_name,
            summary=describe_packet(pkt),
            start_ns=self.clock.now_ns,
        )
        self._next_id += 1
        self.matched += 1
        self._active.append(trace)
        return trace

    def event(self, stage: str, detail: str = "") -> None:
        """Record an event against the innermost in-flight trace."""
        if not self._active:
            return
        trace = self._active[-1]
        if len(trace.events) >= self.max_events:
            trace.truncated_events += 1
            return
        trace.events.append(TraceEvent(self.clock.now_ns, stage, detail))

    def set_outcome(self, outcome: str) -> None:
        """The terminal verdict for the innermost trace (first one wins)."""
        if self._active and self._active[-1].outcome is None:
            self._active[-1].outcome = outcome

    def set_aside(self, trace: PacketTrace) -> None:
        """Take an in-flight trace off the stack until :meth:`resume`; a
        burst runs every frame's program before it dispatches a verdict."""
        self._active.remove(trace)

    def resume(self, trace: PacketTrace) -> None:
        """Make a trace set aside by :meth:`set_aside` current again."""
        self._active.append(trace)

    def end(self, trace: PacketTrace) -> None:
        """Close a trace and commit it to the ring."""
        if trace not in self._active:
            return
        self._active.remove(trace)
        trace.end_ns = self.clock.now_ns
        while len(self.ring) >= self.capacity:
            self.ring.popleft()
            self.overflowed += 1
        self.ring.append(trace)

    # -------------------------------------------------------------- reading

    def traces(self) -> List[PacketTrace]:
        return list(self.ring)

    def summary(self) -> dict:
        return {
            "armed": self.armed,
            "captured": len(self.ring),
            "matched": self.matched,
            "overflowed": self.overflowed,
            "capacity": self.capacity,
        }
