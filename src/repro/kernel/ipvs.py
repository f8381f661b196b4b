"""IPVS: L4 load balancing (the paper's future-work acceleration target).

Virtual services map a (VIP, port, proto) to a pool of real servers chosen by
a scheduler (``rr``/``wrr``/``lc``). Forwarding is NAT-mode: the first packet
of a flow is scheduled in the slow path and the chosen destination is pinned
in conntrack; subsequent packets only need the conntrack lookup + rewrite —
the part LinuxFP's prototype ipvs FPM accelerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netsim.addresses import AddrLike, IPv4Addr, ipv4
from repro.kernel.conntrack import ConnTuple, Conntrack

SCHEDULERS = ("rr", "wrr", "lc")


class IpvsError(ValueError):
    """Raised for invalid ipvs configuration."""


@dataclass
class RealServer:
    ip: IPv4Addr
    port: int
    weight: int = 1
    active_conns: int = 0


@dataclass
class VirtualService:
    vip: IPv4Addr
    port: int
    proto: int
    scheduler: str = "rr"
    dests: List[RealServer] = field(default_factory=list)
    _rr_index: int = 0
    _wrr_credit: Dict[int, int] = field(default_factory=dict)

    def key(self) -> Tuple[IPv4Addr, int, int]:
        return (self.vip, self.port, self.proto)

    def schedule(self) -> Optional[RealServer]:
        """Pick a real server per the configured scheduling algorithm."""
        candidates = [d for d in self.dests if d.weight > 0]
        if not candidates:
            return None
        if self.scheduler == "rr":
            chosen = candidates[self._rr_index % len(candidates)]
            self._rr_index += 1
            return chosen
        if self.scheduler == "wrr":
            # smooth weighted round robin
            best = None
            for i, dest in enumerate(candidates):
                credit = self._wrr_credit.get(i, 0) + dest.weight
                self._wrr_credit[i] = credit
                if best is None or credit > self._wrr_credit[best]:
                    best = i
            total = sum(d.weight for d in candidates)
            self._wrr_credit[best] -= total
            return candidates[best]
        # lc: least connections, weight-scaled
        return min(candidates, key=lambda d: (d.active_conns / d.weight, d.ip.value, d.port))


class Ipvs:
    """The ipvs service table for one kernel."""

    def __init__(self, conntrack: Conntrack) -> None:
        self._conntrack = conntrack
        self._services: Dict[Tuple[IPv4Addr, int, int], VirtualService] = {}

    def add_service(self, vip: AddrLike, port: int, proto: int, scheduler: str = "rr") -> VirtualService:
        if scheduler not in SCHEDULERS:
            raise IpvsError(f"unsupported scheduler {scheduler!r}")
        key = (ipv4(vip), port, proto)
        if key in self._services:
            raise IpvsError(f"service {key} exists")
        service = VirtualService(vip=ipv4(vip), port=port, proto=proto, scheduler=scheduler)
        self._services[key] = service
        return service

    def del_service(self, vip: AddrLike, port: int, proto: int) -> None:
        key = (ipv4(vip), port, proto)
        if key not in self._services:
            raise IpvsError(f"no service {key}")
        del self._services[key]

    def add_dest(self, vip: AddrLike, port: int, proto: int, rs: AddrLike, rport: int, weight: int = 1) -> RealServer:
        service = self.require(vip, port, proto)
        dest = RealServer(ip=ipv4(rs), port=rport, weight=weight)
        service.dests.append(dest)
        return dest

    def del_dest(self, vip: AddrLike, port: int, proto: int, rs: AddrLike, rport: int) -> None:
        service = self.require(vip, port, proto)
        for i, dest in enumerate(service.dests):
            if dest.ip == ipv4(rs) and dest.port == rport:
                service.dests.pop(i)
                return
        raise IpvsError(f"no destination {rs}:{rport}")

    def get(self, vip: AddrLike, port: int, proto: int) -> Optional[VirtualService]:
        return self._services.get((ipv4(vip), port, proto))

    def require(self, vip: AddrLike, port: int, proto: int) -> VirtualService:
        service = self.get(vip, port, proto)
        if service is None:
            raise IpvsError(f"no service {vip}:{port}")
        return service

    def services(self) -> List[VirtualService]:
        return [self._services[k] for k in sorted(self._services, key=lambda k: (k[0].value, k[1], k[2]))]

    def match(self, tup: ConnTuple) -> Optional[VirtualService]:
        return self._services.get((tup.dst, tup.dport, tup.proto))

    def connect(self, tup: ConnTuple) -> Optional[Tuple[IPv4Addr, int]]:
        """Slow-path scheduling for a flow's first packet.

        Pins the chosen real server into conntrack so the rest of the flow
        (fast path) only needs a lookup. The pin is a *required* allocation:
        a full conntrack table raises
        :class:`~repro.kernel.conntrack.ConntrackFull` (the stack drops the
        packet with reason ``conntrack_full``), because forwarding the flow
        without the pin would let later packets reach a different real
        server.
        """
        service = self.match(tup)
        if service is None:
            return None
        existing = self._conntrack.lookup(tup)
        if existing is not None and existing.dnat_to is not None:
            return existing.dnat_to
        dest = service.schedule()
        if dest is None:
            return None
        entry = self._conntrack.create(tup)
        dest.active_conns += 1
        entry.dnat_to = (dest.ip, dest.port)
        return entry.dnat_to
