"""Tests for the FIB (LPM routing table)."""

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


class TestKernelApi:
    def test_route_replace_swaps_next_hop(self):
        topo = LineTopology()
        topo.install_prefixes(2)
        gen = topo.dut.fib.gen
        topo.dut.route_replace("10.100.0.0/16", via="10.0.1.2")
        assert topo.dut.fib.gen > gen
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
    """Replace and delete must invalidate cached forwarding state —
    the next packet follows the *new* FIB, never a stale cached hop."""

    def cached_router(self):
        topo = LineTopology()
        topo.install_prefixes(4)
        controller = Controller(topo.dut, hook="xdp", flow_cache=True)
        controller.start()
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

    def test_route_replace_invalidates_cached_flow(self):
        topo, out = self.cached_router()
        cache = topo.dut.flow_cache
        self.send(topo)
        self.send(topo)
        assert cache.stats.hits["xdp"] == 1
        delivered = len(out)
        # replace the covering prefix to point back at the source side: the
        # cached "forward to sink" decision is now wrong
        topo.dut.route_replace("10.100.0.0/16", via="10.0.1.2")
        self.send(topo)
        assert len(out) == delivered  # NOT delivered to the sink anymore
        assert any(r.startswith("gen:fib") for r in cache.stats.invalidations)

    def test_route_del_invalidates_to_no_route(self):
        topo, out = self.cached_router()
        self.send(topo)
        self.send(topo)
        delivered = len(out)
        drops_before = topo.dut.stack.drops.get("no_route", 0)
        topo.dut.route_del("10.100.0.0/16")
        self.send(topo)
        assert len(out) == delivered
        assert topo.dut.stack.drops.get("no_route", 0) == drops_before + 1

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
