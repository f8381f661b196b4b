"""The host-speed calibration loop.

Host time on a shared machine drifts with CPU frequency, cache pressure
and the neighbours' load. The benchmark brackets every request with this
fixed pure-Python loop (dict, int, attribute and slice work, the same
interpreter paths the simulator spends its time in) and scales the
request's host time by :func:`scale` of the bracketing loop times.

The loop imports nothing from ``repro``, so no change to the program under
test can move it. What it cannot remove is a slowdown inside the program:
that is exactly what the scaled times are meant to show.
"""

from __future__ import annotations

import time

#: Iterations of one calibration loop (about 1.5 ms on the reference host).
CALIB_ITERS = 3_300

#: Median thread-CPU seconds of one calibration loop on the reference host
#: (2-vCPU x86-64 VM, CPython 3.11). Normalised times read as seconds on
#: that host at its median speed.
CALIB_REF = 0.00155

#: How the simulator's host time follows the loop's. When the sibling
#: hardware thread is busy, the loop slows about 1.85x but the simulator
#: only about 1.65x, because part of its time goes to cache and branch
#: misses that the sibling does not lengthen. Measured per request on all
#: four workloads, the exponent that leaves no bias between the two states
#: is 0.78-0.90; 0.85 leaves at most 5%, where a plain ratio leaves 6-14%.
CALIB_ELASTICITY = 0.85

_BUF = bytes(range(256)) * 4


class _Cell:
    __slots__ = ("x", "y")


def _mix(cell: _Cell, k: int) -> int:
    cell.y = k
    return (cell.x >> 3) ^ k


def calibrate(iters: int = CALIB_ITERS) -> float:
    """Run the loop once; returns the thread-CPU seconds it took."""
    table: dict = {}
    acc = 0
    cell = _Cell()
    cell.x = 0
    buf = _BUF
    t0 = time.thread_time()
    for i in range(iters):
        k = i & 1023
        table[k] = table.get(k, 0) + i
        acc = (acc * 31 + k) & 0xFFFFFFFF
        cell.x = acc
        acc ^= _mix(cell, k)
        acc += buf[k] + len(buf[k : k + 8])
    elapsed = time.thread_time() - t0
    if acc < 0:  # keeps the result live; never true
        raise AssertionError(acc)
    return elapsed


def scale(calib: float) -> float:
    """The factor that turns host time measured while the loop took
    ``calib`` seconds into time on the reference host."""
    return (CALIB_REF / calib) ** CALIB_ELASTICITY
