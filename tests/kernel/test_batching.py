"""Tests for NAPI-budget batched backlog draining.

Covers the budget bound, same-(dev, queue) run coalescing, per-CPU FIFO
ordering, the conservative fallbacks that route a batch back through
per-frame ``receive()``, and overflow accounting under burst arrival.
"""

import pytest

from repro.kernel import Kernel
from repro.kernel.softirq import NAPI_BUDGET
from repro.netsim.packet import make_udp


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
    """receive_batch must route back through per-frame receive() whenever
    per-frame machinery (hooks, tracing, flow cache) is live."""

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
