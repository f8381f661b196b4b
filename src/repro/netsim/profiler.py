"""Call-frame profiler for flame graphs (paper Fig 1).

The simulated kernel pipeline wraps each processing stage in
``profiler.frame(name)``, which returns the one cached context object of
that stage name. Every frame reports its stage to a recording packet tracer
and its elapsed simulated time to the stage observer, which the kernel
always wires to its per-stage latency histograms. The elapsed time is
``now_ns`` at the exit minus ``now_ns`` at the entry, both floored to whole
ns. A stage may run inside itself (a vxlan-decapsulated frame re-enters
``__netif_receive_skb_core`` and ``ip_rcv`` inside the outer frame's), so
each frame keeps a stack of start times.

When enabled, the profiler also records one *sample* per completed packet:
the multiset of stacks that were active while the packet was processed,
weighted by the simulated nanoseconds spent in each frame. ``collapsed()``
emits Brendan-Gregg-style collapsed stack lines suitable for flame graph
rendering.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.clock import FS_PER_NS, Clock


class _Frame:
    """One stage name's frame: a slotted context manager, built once per
    name, because building one per stage entry costs an object per stage
    on the per-packet path."""

    __slots__ = ("_profiler", "_name", "_starts")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._starts: List[int] = []

    def __enter__(self) -> None:
        profiler = self._profiler
        tracer = profiler.tracer
        if tracer is not None and tracer.recording:
            tracer.event("stage", self._name)
        if profiler.enabled:
            profiler._stack.append(self._name)
        self._starts.append(profiler.clock._fs // FS_PER_NS)

    def __exit__(self, *exc) -> bool:
        profiler = self._profiler
        name = self._name
        elapsed = profiler.clock._fs // FS_PER_NS - self._starts.pop()
        stack = profiler._stack
        own_top = profiler.enabled and stack and stack[-1] == name
        if elapsed > 0:
            if own_top:
                profiler._samples[tuple(stack)] += elapsed
            observer = profiler.stage_observer
            if observer is not None:
                observer(name, elapsed)
        if own_top:
            stack.pop()
        return False


class Profiler:
    """Records weighted call stacks against a simulated clock."""

    def __init__(self, clock: Clock, enabled: bool = False) -> None:
        self.clock = clock
        self.enabled = enabled
        self._stack: List[str] = []
        self._samples: Counter = Counter()  # tuple(stack) -> weight_ns
        # one frame per stage name; the kernel names a fixed set of stages
        self._frames: Dict[str, _Frame] = {}
        # Observability taps, wired by the kernel: the packet tracer records
        # stage names on traced packets; the stage observer feeds the per-stage
        # latency histograms. Both run regardless of `enabled` (flame-graph
        # sampling stays opt-in; histograms/tracing have their own switches).
        self.tracer = None
        self.stage_observer: Optional[Callable[[str, int], None]] = None

    def frame(self, name: str) -> _Frame:
        """Push ``name`` for the duration of the block, charging elapsed ns:
        a stage event to a recording tracer, a flame-graph sample when
        enabled, and the elapsed time to the stage observer."""
        frame = self._frames.get(name)
        if frame is None:
            frame = self._frames[name] = _Frame(self, name)
        return frame

    def reset(self) -> None:
        """Drop recorded samples. Safe mid-packet: the live frame chain is
        preserved so in-flight ``frame()`` exits still pop their own entry."""
        self._samples.clear()

    @property
    def samples(self) -> Dict[Tuple[str, ...], int]:
        return dict(self._samples)

    def self_weights(self) -> Dict[Tuple[str, ...], int]:
        """Per-stack *self* time: frame time minus time attributed to children.

        One pass over the samples builds a parent → summed-child-time index,
        so this is O(n) in the number of distinct stacks rather than the
        O(n²) all-pairs prefix scan it replaces.
        """
        child_totals: Dict[Tuple[str, ...], int] = {}
        for stack, total in self._samples.items():
            if len(stack) > 1:
                parent = stack[:-1]
                child_totals[parent] = child_totals.get(parent, 0) + total
        return {
            stack: max(0, total - child_totals.get(stack, 0))
            for stack, total in self._samples.items()
        }

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines: ``a;b;c <self_ns>`` sorted by weight desc."""
        lines = [
            (";".join(stack), weight)
            for stack, weight in self.self_weights().items()
            if weight > 0
        ]
        lines.sort(key=lambda item: (-item[1], item[0]))
        return [f"{stack} {weight}" for stack, weight in lines]

    def hottest(self, top: int = 5) -> List[Tuple[str, int]]:
        """The ``top`` hottest leaf frames by self time."""
        leaf_weights: Counter = Counter()
        for stack, weight in self.self_weights().items():
            leaf_weights[stack[-1]] += weight
        return leaf_weights.most_common(top)

    def total_ns(self) -> int:
        """Total self time across all recorded stacks."""
        return sum(self.self_weights().values())
