"""Power-of-two latency histograms (bpftrace ``hist()``-style).

Values are simulated nanoseconds. Bucket ``k`` (k >= 1) covers
``[2^(k-1), 2^k)``; bucket 0 holds zero/negative values. Rendering matches
the familiar bpftrace ASCII layout so per-stage and per-FPM latency
distributions read like production tracing output.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

_MAX_BUCKETS = 64


def _fmt_pow2(value: int) -> str:
    """1024 -> ``1K``, 2097152 -> ``2M`` — bpftrace's bucket labels."""
    for threshold, suffix in ((1 << 30, "G"), (1 << 20, "M"), (1 << 10, "K")):
        if value >= threshold:
            return f"{value // threshold}{suffix}"
    return str(value)


class Log2Histogram:
    """A fixed-size log2 bucket array with count/sum tracking."""

    __slots__ = ("buckets", "count", "total")

    def __init__(self) -> None:
        self.buckets: List[int] = [0] * _MAX_BUCKETS
        self.count = 0
        self.total = 0

    def record(self, value: int) -> None:
        if value > 0:
            index = value.bit_length()
            if index >= _MAX_BUCKETS:
                index = _MAX_BUCKETS - 1
            self.total += value
        else:
            index = 0
        self.buckets[index] += 1
        self.count += 1

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def rows(self) -> List[Tuple[str, int]]:
        """(interval label, count) rows spanning the occupied bucket range."""
        occupied = [i for i, n in enumerate(self.buckets) if n]
        if not occupied:
            return []
        rows: List[Tuple[str, int]] = []
        for i in range(occupied[0], occupied[-1] + 1):
            if i == 0:
                label = "(..., 0]"
            else:
                label = f"[{_fmt_pow2(1 << (i - 1))}, {_fmt_pow2(1 << i)})"
            rows.append((label, self.buckets[i]))
        return rows

    def render(self, width: int = 40) -> List[str]:
        """bpftrace-style ascii rows: ``[1K, 2K)  123 |@@@@@...|``."""
        rows = self.rows()
        if not rows:
            return []
        peak = max(n for _, n in rows)
        lines = []
        for label, n in rows:
            bar = "@" * int(round(width * n / peak)) if n else ""
            lines.append(f"{label:<14}{n:>8} |{bar:<{width}}|")
        return lines

    def prom_buckets(self) -> List[Tuple[str, int]]:
        """Cumulative (le, count) pairs for Prometheus exposition."""
        out: List[Tuple[str, int]] = []
        running = 0
        occupied = [i for i, n in enumerate(self.buckets) if n]
        top = occupied[-1] if occupied else 0
        for i in range(top + 1):
            running += self.buckets[i]
            le = "0" if i == 0 else str(1 << i)
            out.append((le, running))
        out.append(("+Inf", self.count))
        return out

    def as_dict(self) -> Dict[str, object]:
        return {"count": self.count, "sum": self.total, "buckets": dict(self.rows())}


class _Hists(dict):
    """name → :class:`Log2Histogram`, made on the name's first subscript,
    so a recorder updates its histogram in one step:
    ``hists[name].record(value)``."""

    __slots__ = ()

    def __missing__(self, name: str) -> Log2Histogram:
        hist = self[name] = Log2Histogram()
        return hist


class HistogramSet:
    """A labelled family of histograms (per stage, per FPM, …)."""

    def __init__(self) -> None:
        self.hists: Dict[str, Log2Histogram] = _Hists()

    def __len__(self) -> int:
        return len(self.hists)

    def __getitem__(self, name: str) -> Log2Histogram:
        """The histogram of ``name``; KeyError when nothing recorded it."""
        hist = self.hists.get(name)
        if hist is None:
            raise KeyError(name)
        return hist

    def __contains__(self, name: str) -> bool:
        return name in self.hists

    def names(self) -> List[str]:
        return sorted(self.hists)

    def as_dict(self) -> Dict[str, object]:
        return {name: hist.as_dict() for name, hist in sorted(self.hists.items())}

    def render(self, width: int = 40) -> List[str]:
        lines: List[str] = []
        for name in self.names():
            hist = self.hists[name]
            lines.append(f"{name}: n={hist.count} mean={hist.mean():.0f}ns")
            lines.extend(f"  {row}" for row in hist.render(width))
        return lines
