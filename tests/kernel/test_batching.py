"""Tests for NAPI-budget batched backlog draining.

Covers the budget bound, same-(dev, queue) run coalescing, per-CPU FIFO
ordering, the conservative fallbacks that route a batch back through
per-frame ``receive()``, the flow cache serving bursts, the one known way
a burst differs from per-frame delivery, and overflow accounting under
burst arrival.
"""

from collections import Counter

import pytest

from repro.core import Controller
from repro.kernel import Kernel
from repro.kernel.hooks_api import XDP_PASS, XDP_REDIRECT
from repro.kernel.softirq import NAPI_BUDGET
from repro.measure.topology import LineTopology
from repro.netsim.packet import make_arp_request, make_udp


def udp_frame(i, dport=9):
    return make_udp(
        "02:00:00:00:00:01", "02:00:00:00:00:02",
        "10.0.1.2", f"10.100.0.{1 + (i % 200)}", sport=1024 + i, dport=dport,
    ).to_bytes()


@pytest.fixture
def kernel():
    k = Kernel("batch-test", num_cores=2)
    k.add_physical("eth0")
    return k


class Recorder:
    """Monkeypatch target capturing how the stack was invoked."""

    def __init__(self, stack):
        self.calls = []  # ("single"|"batch", dev.name, n, queue)
        self.frames = []  # flattened arrival order
        self._stack = stack

    def receive(self, dev, frame, queue=0):
        self.calls.append(("single", dev.name, 1, queue))
        self.frames.append(frame)

    def receive_batch(self, dev, frames, queue=0):
        self.calls.append(("batch", dev.name, len(frames), queue))
        self.frames.extend(frames)


def record(kernel, monkeypatch):
    rec = Recorder(kernel.stack)
    monkeypatch.setattr(kernel.stack, "receive", rec.receive)
    monkeypatch.setattr(kernel.stack, "receive_batch", rec.receive_batch)
    return rec


class TestDrain:
    def test_run_coalescing_same_dev_queue(self, kernel, monkeypatch):
        dev = kernel.devices.by_name("eth0")
        rec = record(kernel, monkeypatch)
        frames = [udp_frame(0) for _ in range(8)]  # one flow -> one CPU
        for frame in frames:
            kernel.softirq.backlogs[0].append((dev, frame, 0))
        kernel.softirq.process_backlogs()
        assert rec.calls == [("batch", "eth0", 8, 0)]
        assert rec.frames == frames

    def test_napi_budget_bounds_batch_size(self, kernel, monkeypatch):
        dev = kernel.devices.by_name("eth0")
        rec = record(kernel, monkeypatch)
        n = NAPI_BUDGET + 10
        for _ in range(n):
            kernel.softirq.backlogs[0].append((dev, udp_frame(0), 0))
        kernel.softirq.process_backlogs()
        sizes = [c[2] for c in rec.calls]
        assert max(sizes) == NAPI_BUDGET
        assert sum(sizes) == n

    def test_queue_change_breaks_run(self, kernel, monkeypatch):
        dev = kernel.devices.by_name("eth0")
        rec = record(kernel, monkeypatch)
        backlog = kernel.softirq.backlogs[0]
        for queue in (0, 0, 1, 1, 1, 0):
            backlog.append((dev, udp_frame(0), queue))
        kernel.softirq.process_backlogs()
        assert rec.calls == [
            ("batch", "eth0", 2, 0),
            ("batch", "eth0", 3, 1),
            ("single", "eth0", 1, 0),
        ]

    def test_device_change_breaks_run(self, kernel, monkeypatch):
        eth0 = kernel.devices.by_name("eth0")
        eth1 = kernel.add_physical("eth1")
        rec = record(kernel, monkeypatch)
        backlog = kernel.softirq.backlogs[0]
        for dev in (eth0, eth0, eth1, eth0):
            backlog.append((dev, udp_frame(0), 0))
        kernel.softirq.process_backlogs()
        assert rec.calls == [
            ("batch", "eth0", 2, 0),
            ("single", "eth1", 1, 0),
            ("single", "eth0", 1, 0),
        ]

    def test_per_cpu_fifo_order_preserved(self, kernel, monkeypatch):
        dev = kernel.devices.by_name("eth0")
        rec = record(kernel, monkeypatch)
        frames = [udp_frame(i) for i in range(12)]
        for frame in frames:
            kernel.softirq.backlogs[1].append((dev, frame, 0))
        kernel.softirq.process_backlogs()
        assert rec.frames == frames

    def test_packets_counter_attributes_batch(self, kernel):
        dev = kernel.devices.by_name("eth0")
        for _ in range(6):
            kernel.softirq.backlogs[0].append((dev, udp_frame(0), 0))
        before = kernel.cpus.packets[0]
        kernel.softirq.process_backlogs()
        assert kernel.cpus.packets[0] - before == 6


class TestReceiveBatchFallbacks:
    """receive_batch must route back through per-frame receive() when the
    device has no XDP program or per-frame machinery (a watchdog, an armed
    tracer) is live."""

    def _count_singles(self, kernel, monkeypatch):
        calls = {"n": 0}
        original = kernel.stack.receive

        def counting(dev, frame, queue=0):
            calls["n"] += 1
            return original(dev, frame, queue)

        monkeypatch.setattr(kernel.stack, "receive", counting)
        return calls

    def test_no_xdp_prog_falls_back(self, kernel, monkeypatch):
        dev = kernel.devices.by_name("eth0")
        calls = self._count_singles(kernel, monkeypatch)
        kernel.stack.receive_batch(dev, [udp_frame(i) for i in range(3)])
        assert calls["n"] == 3

    def test_armed_tracer_falls_back(self, kernel, monkeypatch):
        from repro.observability.tracer import TraceFilter

        dev = kernel.devices.by_name("eth0")
        kernel.observability.tracer.arm(TraceFilter(), capacity=16)
        calls = self._count_singles(kernel, monkeypatch)
        kernel.stack.receive_batch(dev, [udp_frame(i) for i in range(2)])
        assert calls["n"] == 2

    def test_ledger_balances_after_batched_rx(self, kernel):
        dev = kernel.devices.by_name("eth0")
        frames = [udp_frame(i) for i in range(20)]
        kernel.softirq.rx_burst(dev, [(f, 0) for f in frames])
        stack = kernel.stack
        assert stack.rx_packets == 20
        assert stack.rx_packets + stack.tx_local_packets == (
            stack.settled + stack.pending_packets()
        )


def cached_router():
    topo = LineTopology()
    topo.install_prefixes(8)
    Controller(topo.dut, hook="xdp", flow_cache=True).start()
    topo.prewarm_neighbors()
    egress = []
    topo.sink_eth.nic.attach(lambda f, q: egress.append(f))
    return topo, egress


class TestFlowCacheInBursts:
    def test_bursts_are_served_by_the_cache(self, monkeypatch):
        topo, egress = cached_router()
        twin, twin_egress = cached_router()
        singles = Counter()
        original = topo.dut.stack.receive

        def counting(dev, frame, queue=0):
            singles["n"] += 1
            return original(dev, frame, queue)

        monkeypatch.setattr(topo.dut.stack, "receive", counting)
        frames = [
            make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", topo.flow_destination(i % 8, 8),
                     sport=1000 + i % 8, dport=7, ttl=9).to_bytes()
            for i in range(64)
        ]
        topo.dut_in.nic.receive_burst(frames[:32])
        topo.dut_in.nic.receive_burst(frames[32:])
        for frame in frames:
            twin.dut_in.nic.receive_from_wire(frame)

        assert singles["n"] == 0  # both bursts stayed batched
        stats = topo.dut.flow_cache.stats
        assert (stats.misses["xdp"], stats.hits["xdp"]) == (8, 56)
        stack, twin_stack = topo.dut.stack, twin.dut.stack
        assert stack.xdp_actions == twin_stack.xdp_actions == Counter({XDP_REDIRECT: 64})
        assert stack.outcomes == twin_stack.outcomes
        # MACs are unique per kernel, so compare from the IP header on
        assert [f[14:] for f in egress] == [f[14:] for f in twin_egress]
        assert len(egress) == 64
        assert stack.settled == twin_stack.settled == stack.rx_packets == 64


class TestBurstOrdering:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "receive_batch runs every program before dispatching any verdict, so "
        "the ARP request has not resolved the neighbor when the UDP frame's "
        "program looks it up"))
    def test_burst_matches_per_frame_when_an_earlier_frame_resolves_a_neighbor(self):
        def deliver(burst):
            topo = LineTopology()
            topo.install_prefixes(4)
            Controller(topo.dut, hook="xdp").start()
            # 10.0.1.2 stays unresolved until its ARP request arrives
            arp = make_arp_request(topo.src_eth.mac, "10.0.1.2", "10.0.1.1").to_bytes()
            udp = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.2.2", "10.0.1.2").to_bytes()
            if burst:
                topo.dut_in.nic.receive_burst([arp, udp])
            else:
                topo.dut_in.nic.receive_from_wire(arp)
                topo.dut_in.nic.receive_from_wire(udp)
            return topo.dut.stack

        per_frame, batched = deliver(burst=False), deliver(burst=True)
        assert per_frame.xdp_actions == Counter({XDP_PASS: 1, XDP_REDIRECT: 1})
        assert per_frame.outcomes == Counter({"arp_rx": 1, "xdp_redirect": 1})
        # today the burst reads XDP_PASS twice and the UDP frame leaves as
        # "tx" through the slow path
        assert batched.xdp_actions == per_frame.xdp_actions
        assert batched.outcomes == per_frame.outcomes


class TestOverflow:
    def test_burst_overflow_accounted_with_batching(self, kernel):
        kernel.sysctl.set("net.core.netdev_max_backlog", "8")
        dev = kernel.devices.by_name("eth0")
        frames = [(udp_frame(0), 0) for _ in range(20)]  # one flow, one CPU
        queued = kernel.softirq.rx_burst(dev, frames)
        assert queued == 8
        assert sum(kernel.softirq.backlog_drops) == 12
        stack = kernel.stack
        assert stack.rx_packets == 20
        assert stack.rx_packets + stack.tx_local_packets == (
            stack.settled + stack.pending_packets()
        )
