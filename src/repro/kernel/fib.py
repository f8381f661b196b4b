"""The forwarding information base: longest-prefix-match routing.

Routes live in a binary trie keyed by prefix bits (the same structure Linux's
``fib_trie`` approximates). A lookup walks from the most-specific candidate
outward, honoring route metrics when several routes share a prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.netsim.addresses import AddrLike, IPv4Addr, IPv4Prefix, ipv4

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


@dataclass
class _TrieNode:
    routes: List[Route] = field(default_factory=list)
    children: Dict[int, "_TrieNode"] = field(default_factory=dict)


class Fib:
    """A routing table with longest-prefix-match lookup."""

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._count = 0
        # Bumped on every semantic mutation; the flow cache keys entry
        # validity off this (generation-tag invalidation).
        self.gen = 0

    def __len__(self) -> int:
        return self._count

    def add(self, route: Route, replace: bool = True) -> None:
        """Insert a route; same-prefix same-metric routes are replaced."""
        node = self._node_for(route.prefix, create=True)
        for i, existing in enumerate(node.routes):
            if existing.metric == route.metric:
                if not replace:
                    raise RouteError(f"route {route.prefix} metric {route.metric} exists")
                node.routes[i] = route
                self.gen += 1
                return
        node.routes.append(route)
        node.routes.sort(key=lambda r: r.metric)
        self._count += 1
        self.gen += 1

    def remove(self, prefix: IPv4Prefix, metric: Optional[int] = None) -> Route:
        node = self._node_for(prefix, create=False)
        if node is None or not node.routes:
            raise RouteError(f"no route for {prefix}")
        if metric is None:
            removed = node.routes.pop(0)
        else:
            for i, existing in enumerate(node.routes):
                if existing.metric == metric:
                    removed = node.routes.pop(i)
                    break
            else:
                raise RouteError(f"no route for {prefix} with metric {metric}")
        self._count -= 1
        self.gen += 1
        return removed

    def remove_for_oif(self, ifindex: int) -> List[Route]:
        """Drop every route using an interface (mirrors link-down flushing)."""
        removed = [r for r in self.routes() if r.oif == ifindex]
        for route in removed:
            self.remove(route.prefix, route.metric)
        return removed

    def lookup(self, dst: AddrLike) -> Optional[Route]:
        """Longest-prefix match; returns the best (lowest-metric) route."""
        addr = ipv4(dst).value
        best: Optional[Route] = None
        node = self._root
        depth = 0
        while node is not None:
            if node.routes:
                best = node.routes[0]
            if depth == 32:
                break
            bit = (addr >> (31 - depth)) & 1
            node = node.children.get(bit)
            depth += 1
        return best

    def routes(self) -> List[Route]:
        """All routes, most-specific first (stable order for dumps)."""
        out: List[Route] = []

        def walk(node: _TrieNode) -> None:
            out.extend(node.routes)
            for bit in (0, 1):
                child = node.children.get(bit)
                if child is not None:
                    walk(child)

        walk(self._root)
        out.sort(key=lambda r: (-r.prefix.length, r.prefix.address.value, r.metric))
        return out

    def _node_for(self, prefix: IPv4Prefix, create: bool) -> Optional[_TrieNode]:
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.address.value >> (31 - depth)) & 1
            child = node.children.get(bit)
            if child is None:
                if not create:
                    return None
                child = _TrieNode()
                node.children[bit] = child
            node = child
        return node
