"""The simulated clock.

All performance results in this reproduction derive from simulated time:
every code path (the Linux slow path, the eBPF VM, the baseline platforms)
charges nanoseconds to a :class:`Clock`. Wall-clock time is only used for the
controller reaction-time experiment (Table VI), which measures our actual
synthesis/compile/load pipeline.

Time counts whole femtoseconds. Every cost is a whole number of fs, so the
clock is an exact integer sum: the same charges give the same clock in any
grouping. :func:`to_fs` is the one ns → fs rule. A kernel's charges
(:meth:`~repro.kernel.kernel.Kernel.charge_ns`) add its result to ``_fs``.
A named cost is converted once and kept in its cost model's femtosecond
table (``costs.fs``, :mod:`repro.netsim.cost`) until the field is written,
so :meth:`~repro.kernel.kernel.Kernel.costs_charge` converts nothing, and
the eBPF executors charge n instructions as ``n * costs.fs["ebpf_insn"]``
whole fs through :meth:`~repro.kernel.kernel.Kernel.charge_fs`. The
profiler's stage frames and the hooks read ``_fs`` without a call.
"""

from __future__ import annotations

FS_PER_NS = 1_000_000


def to_fs(ns: float) -> int:
    """The whole femtoseconds in ``ns`` of time: an int multiplies exactly,
    and only a fraction is rounded."""
    if ns < 0:
        raise ValueError(f"cannot advance clock by negative time: {ns}")
    return ns * FS_PER_NS if ns.__class__ is int else round(ns * FS_PER_NS)


class Clock:
    """Monotonic simulated clock, counted in whole femtoseconds."""

    def __init__(self) -> None:
        self._fs = 0

    @property
    def now_ns(self) -> int:
        return self._fs // FS_PER_NS

    @property
    def now_us(self) -> float:
        return self._fs / 1_000_000_000

    @property
    def now_s(self) -> float:
        return self._fs / 1_000_000_000_000_000

    def advance(self, ns: float) -> int:
        """Advance simulated time by ``ns``; returns the whole fs added."""
        fs = to_fs(ns)
        self._fs += fs
        return fs

    def advance_to(self, ns: float) -> None:
        """Jump forward to an absolute timestamp (no-op if already past it)."""
        fs = to_fs(ns)
        if fs > self._fs:
            self._fs = fs

    def reset(self) -> None:
        self._fs = 0

    def __repr__(self) -> str:
        return f"Clock(now={self._fs / FS_PER_NS:.1f}ns)"
