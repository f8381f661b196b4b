"""Tests for the FIB (LPM routing table)."""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Controller
from repro.kernel import Kernel
from repro.kernel.fib import Fib, Route, RouteError, SCOPE_LINK, SCOPE_UNIVERSE
from repro.measure.topology import LineTopology
from repro.netsim.addresses import IPv4Addr, IPv4Prefix, ipv4
from repro.netsim.packet import make_udp


def route(prefix, oif=1, via=None, metric=0):
    gateway = IPv4Addr.parse(via) if via else None
    return Route(prefix=IPv4Prefix.parse(prefix), oif=oif, gateway=gateway, metric=metric)


# ------------------------------------------------------------ the reference

@dataclass
class _TrieNode:
    routes: List[Route] = field(default_factory=list)
    children: Dict[int, "_TrieNode"] = field(default_factory=dict)


class TrieFib:
    """The FIB as a binary trie walked one prefix bit at a time, which
    :class:`Fib` was before it kept its routes in a ``PrefixTable``."""

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, route: Route, replace: bool = True) -> None:
        node = self._node_for(route.prefix, create=True)
        for i, existing in enumerate(node.routes):
            if existing.metric == route.metric:
                if not replace:
                    raise RouteError(f"route {route.prefix} metric {route.metric} exists")
                node.routes[i] = route
                return
        node.routes.append(route)
        node.routes.sort(key=lambda r: r.metric)
        self._count += 1

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
        return removed

    def remove_for_oif(self, ifindex: int) -> List[Route]:
        removed = [r for r in self.routes() if r.oif == ifindex]
        for route in removed:
            self.remove(route.prefix, route.metric)
        return removed

    def lookup(self, dst) -> Optional[Route]:
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


# a few shared bases make nested and equal networks common at every length
BASES = [0x0A000000, 0x0A010203, 0x0A0102FF, 0x0AFF0000, 0xC0A80101, 0x80000000, 0]
addresses = st.sampled_from(BASES) | st.integers(0, 0xFFFFFFFF)
prefixes = st.builds(
    lambda base, length: IPv4Prefix(IPv4Addr(base), length),
    addresses,
    st.sampled_from([0, 8, 16, 24, 32]) | st.integers(0, 32),
)
metrics = st.integers(0, 3)
oifs = st.integers(1, 3)


@st.composite
def operations(draw):
    """Route operations over a few prefixes, so that most operations meet
    a route an earlier one added."""
    pool = st.sampled_from(draw(st.lists(prefixes, min_size=1, max_size=6)))
    op = st.one_of(
        st.tuples(st.just("add"), pool, oifs, metrics, st.booleans()),
        st.tuples(st.just("remove"), pool, st.none() | metrics),
        st.tuples(st.just("remove_for_oif"), oifs),
    )
    return draw(st.lists(op, max_size=40))


def apply(fib, op):
    """Run one operation; returns its result or the exception type it raised."""
    try:
        if op[0] == "add":
            __, pfx, oif, metric, replace = op
            return fib.add(Route(prefix=pfx, oif=oif, metric=metric), replace=replace)
        if op[0] == "remove":
            return fib.remove(op[1], op[2])
        return fib.remove_for_oif(op[1])
    except RouteError:
        return RouteError


class TestFib:
    def test_exact_match(self):
        fib = Fib()
        fib.add(route("10.0.0.0/24", oif=2))
        found = fib.lookup("10.0.0.55")
        assert found is not None and found.oif == 2

    def test_longest_prefix_wins(self):
        fib = Fib()
        fib.add(route("10.0.0.0/8", oif=1))
        fib.add(route("10.1.0.0/16", oif=2))
        fib.add(route("10.1.2.0/24", oif=3))
        assert fib.lookup("10.1.2.3").oif == 3
        assert fib.lookup("10.1.9.9").oif == 2
        assert fib.lookup("10.9.9.9").oif == 1

    def test_default_route_fallback(self):
        fib = Fib()
        fib.add(route("0.0.0.0/0", oif=9, via="192.168.0.1"))
        fib.add(route("10.0.0.0/8", oif=1))
        assert fib.lookup("8.8.8.8").oif == 9
        assert fib.lookup("10.1.1.1").oif == 1

    def test_miss_returns_none(self):
        fib = Fib()
        fib.add(route("10.0.0.0/24", oif=1))
        assert fib.lookup("11.0.0.1") is None

    def test_host_route(self):
        fib = Fib()
        fib.add(route("10.0.0.0/24", oif=1))
        fib.add(route("10.0.0.7/32", oif=5))
        assert fib.lookup("10.0.0.7").oif == 5
        assert fib.lookup("10.0.0.8").oif == 1

    def test_metric_ordering(self):
        fib = Fib()
        fib.add(route("10.0.0.0/24", oif=1, metric=10))
        fib.add(route("10.0.0.0/24", oif=2, metric=5))
        assert fib.lookup("10.0.0.1").oif == 2

    def test_same_metric_replaces(self):
        fib = Fib()
        fib.add(route("10.0.0.0/24", oif=1))
        fib.add(route("10.0.0.0/24", oif=2))
        assert fib.lookup("10.0.0.1").oif == 2
        assert len(fib) == 1

    def test_replace_false_raises(self):
        fib = Fib()
        fib.add(route("10.0.0.0/24", oif=1))
        with pytest.raises(RouteError):
            fib.add(route("10.0.0.0/24", oif=2), replace=False)

    def test_remove(self):
        fib = Fib()
        fib.add(route("10.0.0.0/24", oif=1))
        removed = fib.remove(IPv4Prefix.parse("10.0.0.0/24"))
        assert removed.oif == 1
        assert fib.lookup("10.0.0.1") is None

    def test_remove_specific_metric(self):
        fib = Fib()
        fib.add(route("10.0.0.0/24", oif=1, metric=5))
        fib.add(route("10.0.0.0/24", oif=2, metric=10))
        fib.remove(IPv4Prefix.parse("10.0.0.0/24"), metric=10)
        assert fib.lookup("10.0.0.1").oif == 1

    def test_remove_missing_raises(self):
        with pytest.raises(RouteError):
            Fib().remove(IPv4Prefix.parse("10.0.0.0/24"))

    def test_remove_for_oif(self):
        fib = Fib()
        fib.add(route("10.0.0.0/24", oif=1))
        fib.add(route("10.1.0.0/24", oif=2))
        fib.add(route("10.2.0.0/24", oif=1))
        removed = fib.remove_for_oif(1)
        assert len(removed) == 2 and len(fib) == 1

    def test_routes_sorted_most_specific_first(self):
        fib = Fib()
        fib.add(route("0.0.0.0/0", oif=1, via="192.168.0.1"))
        fib.add(route("10.0.0.0/8", oif=1))
        fib.add(route("10.1.1.0/24", oif=2))
        lengths = [r.prefix.length for r in fib.routes()]
        assert lengths == sorted(lengths, reverse=True)

    def test_gatewayless_non_host_route_becomes_link_scope(self):
        r = route("10.0.0.0/24", oif=1)
        assert r.scope == SCOPE_LINK
        assert route("10.0.0.0/24", oif=1, via="10.9.0.1").scope == SCOPE_UNIVERSE

    def test_next_hop(self):
        assert route("10.0.0.0/24", oif=1, via="10.9.0.1").next_hop == IPv4Addr.parse("10.9.0.1")
        assert route("10.0.0.0/24", oif=1).next_hop is None

    def test_50_prefixes_paper_workload(self):
        """The paper's router experiment configures 50 prefixes."""
        fib = Fib()
        for i in range(50):
            fib.add(route(f"10.{i}.0.0/16", oif=(i % 4) + 1))
        assert len(fib) == 50
        for i in range(50):
            assert fib.lookup(f"10.{i}.200.1").oif == (i % 4) + 1

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_lpm_is_most_specific_property(self, addr_value):
        fib = Fib()
        fib.add(route("0.0.0.0/0", oif=1, via="192.168.0.1"))
        fib.add(route("128.0.0.0/1", oif=2))
        fib.add(route("128.0.0.0/2", oif=3))
        found = fib.lookup(IPv4Addr(addr_value))
        top_bits = addr_value >> 30
        if top_bits == 0b10:
            assert found.oif == 3
        elif top_bits == 0b11:
            assert found.oif == 2
        else:
            assert found.oif == 1


class TestAgainstTrie:
    """``Fib`` against the bit-by-bit trie walk it replaced."""

    @given(operations(), st.lists(addresses, max_size=6))
    def test_same_answers_after_every_operation(self, ops, probes):
        fib, trie = Fib(), TrieFib()
        for op in ops:
            assert apply(fib, op) == apply(trie, op)
            routes = fib.routes()
            assert routes == trie.routes()
            assert len(fib) == len(trie) == len(routes)
            points = list(probes)
            for r in routes:
                points += [r.prefix.address.value, r.prefix.broadcast.value]
            for addr in points:
                assert fib.lookup(addr) == trie.lookup(addr)


class TestKernelApi:
    def test_route_replace_swaps_next_hop(self):
        topo = LineTopology()
        topo.install_prefixes(2)
        topo.dut.route_replace("10.100.0.0/16", via="10.0.1.2")
        assert topo.dut.fib.lookup("10.100.0.1").gateway == ipv4("10.0.1.2")

    def test_route_replace_creates_when_absent(self):
        topo = LineTopology()
        topo.dut.route_replace("10.200.0.0/16", via="10.0.2.2")
        assert topo.dut.fib.lookup("10.200.0.1") is not None

    def test_route_add_still_rejects_duplicates(self):
        topo = LineTopology()
        topo.install_prefixes(1)
        with pytest.raises(RouteError):
            topo.dut.route_add("10.100.0.0/16", via="10.0.1.2")


class TestStaleRouteRegression:
    """On an accelerated router, route changes take effect on the next
    packet: it follows the *new* FIB, never the old next hop."""

    def accelerated_router(self):
        topo = LineTopology()
        topo.install_prefixes(4)
        Controller(topo.dut, hook="xdp").start()
        topo.prewarm_neighbors()
        out = []
        topo.sink_eth.nic.attach(lambda frame, q: out.append(frame))
        return topo, out

    def send(self, topo, flow=0):
        frame = make_udp(
            topo.src_eth.mac,
            topo.dut_in.mac,
            "10.0.1.2",
            topo.flow_destination(flow, 4),
            sport=1234,
            dport=53,
        ).to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)

    def test_route_replace_reroutes_the_next_packet(self):
        topo, out = self.accelerated_router()
        self.send(topo)
        self.send(topo)
        delivered = len(out)
        assert delivered == 2
        # replace the covering prefix to point back at the source side: the
        # earlier "forward to sink" decision is now wrong
        topo.dut.route_replace("10.100.0.0/16", via="10.0.1.2")
        self.send(topo)
        assert len(out) == delivered  # NOT delivered to the sink anymore

    def test_route_del_invalidates_to_no_route(self):
        topo, out = self.accelerated_router()
        self.send(topo)
        self.send(topo)
        delivered = len(out)
        drops_before = topo.dut.stack.drops.get("no_route", 0)
        topo.dut.route_del("10.100.0.0/16")
        self.send(topo)
        assert len(out) == delivered
        assert topo.dut.stack.drops.get("no_route", 0) == drops_before + 1

    def test_unrelated_route_add_keeps_forwarding(self):
        topo, out = self.accelerated_router()
        self.send(topo)
        self.send(topo)
        topo.dut.route_add("192.168.0.0/24", dev="eth0")
        self.send(topo)
        assert len(out) == 3

    def test_more_specific_route_takes_over_and_goes(self):
        """A more-specific route flips where the packets go, and its
        removal flips them back."""
        topo, out = self.accelerated_router()
        self.send(topo)
        self.send(topo)
        delivered = len(out)
        # a /24 covering flow 0's destination, toward the source side
        topo.dut.route_add("10.100.0.0/24", via="10.0.1.2")
        for __ in range(3):
            self.send(topo)
        assert len(out) == delivered  # nothing more reached the sink
        topo.dut.route_del("10.100.0.0/24")
        self.send(topo)
        assert len(out) == delivered + 1

    def test_iproute2_replace_dev_route(self):
        from repro.tools import ip

        kernel = Kernel("r")
        kernel.add_physical("eth0")
        kernel.set_link("eth0", True)
        kernel.add_address("eth0", "10.1.0.1/24")
        ip(kernel, "route add 10.50.0.0/16 dev eth0")
        route = kernel.fib.lookup("10.50.0.1")
        assert route.gateway is None and route.scope == SCOPE_LINK
        ip(kernel, "route replace 10.50.0.0/16 via 10.1.0.2")
        route = kernel.fib.lookup("10.50.0.1")
        assert route.gateway == ipv4("10.1.0.2") and route.scope == SCOPE_UNIVERSE
        ip(kernel, "route del 10.50.0.0/16")
        assert kernel.fib.lookup("10.50.0.1") is None
