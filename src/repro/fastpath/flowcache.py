"""Names ``bench/`` still reads; nothing in the program uses them."""

from types import SimpleNamespace


class FlowCache:
    #: Placeholder with nothing behind it: bench/workloads.py reports it in Workload.config.
    enabled = False
    #: Placeholder with nothing behind it: bench/child.py reads stats.hits and stats.misses.
    stats = SimpleNamespace(hits={}, misses={})
    #: Placeholder with nothing behind it: bench/trace.py wraps this name on traced runs.
    run_xdp = None
    #: Placeholder with nothing behind it: bench/trace.py wraps this name on traced runs.
    run_tc = None
