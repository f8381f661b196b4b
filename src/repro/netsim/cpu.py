"""Simulated logical CPUs.

Multi-core throughput in this reproduction is *measured*, not modeled: every
cost charged while a CPU context is active (``CpuSet.on``) accumulates in
that CPU's busy-time counter, and a multi-core run's throughput is the
packet count divided by the *bottleneck* CPU's busy time. The shared
:class:`~repro.netsim.clock.Clock` still advances for every charge — it
orders timeouts and expiry globally — but per-CPU busy time is what scales
with parallelism. Like the clock, busy time sums whole femtoseconds:
:meth:`~repro.kernel.kernel.Kernel.charge_ns` adds each charge to the
innermost active CPU's ``_busy_fs`` itself. Charges outside any context are
control-plane work, scale with none of the data-plane CPUs, and land on
none.

The simulation is single-threaded, so "which CPU is executing right now" is
a simple context stack, one per kernel's CpuSet: a frame processed on DUT
CPU 2 may synchronously cross a wire into the sink kernel, whose own softirq
context then pushes CPU 0 on the sink's stack while the DUT's still ends in
CPU 2 — each kernel's charges land on that kernel's innermost active CPU.
"""

from __future__ import annotations

from typing import List, Optional

from repro.netsim.clock import FS_PER_NS


class _CpuContext:
    """``with cpus.on(cpu)``: one slotted context object per CPU, built
    once, because a generator-based context costs a generator per use on
    the per-frame path. Entering pushes the CPU on its set's stack of
    active CPUs and exiting pops it, so the same CPU nests."""

    __slots__ = ("_active", "_cpu")

    def __init__(self, active: List[int], cpu: int) -> None:
        self._active = active
        self._cpu = cpu

    def __enter__(self) -> int:
        self._active.append(self._cpu)
        return self._cpu

    def __exit__(self, *exc) -> bool:
        self._active.pop()
        return False


class CpuSet:
    """The logical CPUs of one simulated kernel.

    Tracks per-CPU busy nanoseconds and processed-packet counts. A
    ``num_cpus == 1`` CpuSet behaves exactly like the pre-multicore
    simulation: everything lands on CPU 0.
    """

    def __init__(self, num_cpus: int = 1) -> None:
        if num_cpus < 1:
            raise ValueError("need at least one CPU")
        self.num_cpus = num_cpus
        self._busy_fs: List[int] = [0] * num_cpus
        self.packets: List[int] = [0] * num_cpus
        # Hotplug state: a possible CPU that is offline keeps its counters
        # (busy time already spent is history) but must not execute anything
        # new — ``on()`` refuses it, so stray steering to a dead CPU is a
        # loud bug rather than silent misaccounting.
        self._online: List[bool] = [True] * num_cpus
        #: this set's active CPU contexts, innermost last
        self._active: List[int] = []
        self._contexts = [_CpuContext(self._active, cpu) for cpu in range(num_cpus)]

    # ------------------------------------------------------------- hotplug

    def is_online(self, cpu: int) -> bool:
        return 0 <= cpu < self.num_cpus and self._online[cpu]

    def online_cpus(self) -> List[int]:
        """The online CPU ids, ascending (the dispatchable set)."""
        return [c for c in range(self.num_cpus) if self._online[c]]

    def offline_cpus(self) -> List[int]:
        return [c for c in range(self.num_cpus) if not self._online[c]]

    @property
    def num_online(self) -> int:
        return sum(self._online)

    def offline(self, cpu: int) -> None:
        """Mark ``cpu`` offline (``echo 0 > .../cpuN/online``).

        The caller (:meth:`repro.kernel.kernel.Kernel.cpu_offline`) is
        responsible for draining per-CPU work first; at this layer the only
        invariants are that the id exists, is not currently executing, and
        at least one CPU stays online.
        """
        if not 0 <= cpu < self.num_cpus:
            raise ValueError(f"no CPU {cpu} in a {self.num_cpus}-CPU set")
        if not self._online[cpu]:
            return
        if self.num_online <= 1:
            raise ValueError("cannot offline the last online CPU")
        if cpu in self._active:
            raise ValueError(f"CPU {cpu} is currently executing")
        self._online[cpu] = False

    def online(self, cpu: int) -> None:
        """Bring a possible CPU back online."""
        if not 0 <= cpu < self.num_cpus:
            raise ValueError(f"no CPU {cpu} in a {self.num_cpus}-CPU set")
        self._online[cpu] = True

    def on(self, cpu: int) -> _CpuContext:
        """Execute the body on ``cpu``: charges to the owning kernel land in
        ``busy_ns[cpu]`` until the context exits (contexts nest). Returns
        the CPU's cached context, after the checks that it exists and is
        online."""
        if not 0 <= cpu < self.num_cpus:
            raise ValueError(f"no CPU {cpu} in a {self.num_cpus}-CPU set")
        if not self._online[cpu]:
            raise ValueError(f"CPU {cpu} is offline")
        return self._contexts[cpu]

    @property
    def current_cpu(self) -> Optional[int]:
        """The innermost active CPU of this set (None when this kernel is
        running in host/control context)."""
        active = self._active
        return active[-1] if active else None

    @property
    def busy_ns(self) -> List[float]:
        """Each CPU's busy time in nanoseconds."""
        return [fs / FS_PER_NS for fs in self._busy_fs]

    def reset_busy(self) -> None:
        """Zero the busy/packet counters (benchmark measurement windows)."""
        self._busy_fs = [0] * self.num_cpus
        self.packets = [0] * self.num_cpus

    @property
    def max_busy_ns(self) -> float:
        """The bottleneck CPU's busy time — the multi-core elapsed time."""
        return max(self._busy_fs) / FS_PER_NS

    @property
    def total_busy_ns(self) -> float:
        return sum(self._busy_fs) / FS_PER_NS

    def imbalance(self) -> float:
        """max/mean busy ratio (1.0 = perfectly balanced); 0 when idle.

        The mean is taken over *online* CPUs: after a hotplug offline the
        dead CPU stops accumulating busy time, and counting it in the mean
        would report phantom imbalance.
        """
        total = self.total_busy_ns
        if total <= 0:
            return 0.0
        return self.max_busy_ns / (total / max(1, self.num_online))

    def __repr__(self) -> str:
        return f"CpuSet(n={self.num_cpus}, busy={[fs // FS_PER_NS for fs in self._busy_fs]})"
