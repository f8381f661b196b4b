"""The forwarding information base: longest-prefix-match routing.

Routes live in a :class:`~repro.netsim.addresses.PrefixTable`, one
metric-sorted route list per prefix. A lookup probes the prefix lengths
present, longest first, and the first prefix that holds the address gives
its lowest-metric route: the answer Linux's ``fib_trie`` gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.netsim.addresses import AddrLike, IPv4Addr, IPv4Prefix, PrefixTable, ipv4

# Route scopes (mirroring rtnetlink values)
SCOPE_UNIVERSE = 0  # via a gateway
SCOPE_LINK = 253  # directly connected

MAIN_TABLE = 254


class RouteError(ValueError):
    """Raised for invalid route operations."""


@dataclass(frozen=True)
class Route:
    """One FIB entry."""

    prefix: IPv4Prefix
    oif: int  # egress interface index
    gateway: Optional[IPv4Addr] = None
    scope: int = SCOPE_UNIVERSE
    metric: int = 0
    table: int = MAIN_TABLE

    def __post_init__(self) -> None:
        if self.gateway is None and self.scope == SCOPE_UNIVERSE and self.prefix.length != 32:
            # A gateway-less universe route is only meaningful as an onlink
            # host/interface route; normalize to link scope.
            object.__setattr__(self, "scope", SCOPE_LINK)

    @property
    def next_hop(self) -> Optional[IPv4Addr]:
        """The IP whose MAC we need: the gateway, or None for onlink routes."""
        return self.gateway


class Fib:
    """A routing table with longest-prefix-match lookup."""

    def __init__(self) -> None:
        #: each prefix's routes, lowest metric first; a prefix whose last
        #: route goes leaves the table, so ``longest`` never stops at an
        #: empty list
        self._table: PrefixTable[List[Route]] = PrefixTable()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, route: Route, replace: bool = True) -> None:
        """Insert a route; same-prefix same-metric routes are replaced."""
        prefix = route.prefix
        routes = self._table.get(prefix.length, prefix.address.value) or []
        for i, existing in enumerate(routes):
            if existing.metric == route.metric:
                if not replace:
                    raise RouteError(f"route {route.prefix} metric {route.metric} exists")
                routes[i] = route
                return
        routes.append(route)
        routes.sort(key=lambda r: r.metric)
        self._table.set(prefix.length, prefix.address.value, routes)
        self._count += 1

    def remove(self, prefix: IPv4Prefix, metric: Optional[int] = None) -> Route:
        routes = self._table.get(prefix.length, prefix.address.value)
        if routes is None:
            raise RouteError(f"no route for {prefix}")
        if metric is None:
            removed = routes.pop(0)
        else:
            for i, existing in enumerate(routes):
                if existing.metric == metric:
                    removed = routes.pop(i)
                    break
            else:
                raise RouteError(f"no route for {prefix} with metric {metric}")
        if not routes:
            self._table.pop(prefix.length, prefix.address.value)
        self._count -= 1
        return removed

    def remove_for_oif(self, ifindex: int) -> List[Route]:
        """Drop every route using an interface (mirrors link-down flushing)."""
        removed = [r for r in self.routes() if r.oif == ifindex]
        for route in removed:
            self.remove(route.prefix, route.metric)
        return removed

    def lookup(self, dst: AddrLike) -> Optional[Route]:
        """Longest-prefix match; returns the best (lowest-metric) route."""
        routes = self._table.longest(ipv4(dst).value)
        return None if routes is None else routes[0]

    def routes(self) -> List[Route]:
        """All routes, most-specific first (stable order for dumps)."""
        out = [route for __, __, routes in self._table.items() for route in routes]
        out.sort(key=lambda r: (-r.prefix.length, r.prefix.address.value, r.metric))
        return out
