"""Per-device / per-subsystem drop accounting plus the kernel-wide
observability container that ties the registry, tracer, and histograms
together.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Tuple

from repro.observability.drop_reasons import DropReason
from repro.observability.histogram import HistogramSet
from repro.observability.tracer import PacketTracer


class DropMonitor:
    """Counters keyed the three ways operators actually ask the question:
    by reason, by (device, reason), and by subsystem."""

    def __init__(self) -> None:
        self.by_reason: Counter = Counter()
        self.by_device: Counter = Counter()  # (device, reason) -> count
        self.by_subsys: Counter = Counter()

    def record(self, reason: DropReason, device: Optional[str]) -> None:
        self.by_reason[reason.name] += 1
        self.by_subsys[reason.subsys] += 1
        if device is not None:
            self.by_device[(device, reason.name)] += 1

    def total(self) -> int:
        return sum(self.by_reason.values())

    def table(self) -> List[Tuple[str, str, int]]:
        """(subsys, reason, count) rows sorted by count descending."""
        from repro.observability.drop_reasons import drop_reason

        rows = [
            (drop_reason(name).subsys, name, count)
            for name, count in self.by_reason.items()
        ]
        rows.sort(key=lambda row: (-row[2], row[0], row[1]))
        return rows


class Observability:
    """One per kernel: drop counters, the packet tracer, and latency
    histograms per pipeline stage and per deployed FPM."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.drops = DropMonitor()
        self.tracer = PacketTracer(kernel.clock)
        self.stage_latency = HistogramSet()
        self.fpm_latency = HistogramSet()

    def record_stage(self, name: str, elapsed_ns: int) -> None:
        self.stage_latency.hists[name].record(elapsed_ns)

    def record_fpm(self, name: str, elapsed_ns: int) -> None:
        self.fpm_latency.hists[name].record(elapsed_ns)
