"""Compare a parent and a change: ten alternating pairs, quartiles and bounds.

Usage::

    python3 -m bench.compare PARENT CHANGE
    python3 -m bench.compare --run PARENT_ROOT CHANGE_ROOT --out DIR [--workload NAME ...]
    python3 -m bench.compare --summary RESULTS [RESULTS ...]

``PARENT`` and ``CHANGE`` are result files written by ``bench/run.py --out``
or directories of them. Runs pair up by (workload, seed). ``--run`` first
makes the pairs: it runs ``bench/run.py`` in each checkout with seeds 1 to
10, alternating which side goes first, writes the results under
``DIR/parent`` and ``DIR/change``, then compares them. Put the same
``bench/`` in both checkouts so the benchmark code is identical.

For every workload and end-to-end metric the report gives each side's
median and quartiles and one verdict:

- ``gain``: the change wins at least 9 of every 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: the parent's own spread (IQR / median) exceeds the bound,
  unless every change run beats every parent run;
- ``same``: none of the above.

Only pairs whose two runs were both correct are compared. The exit code is
1 on any regression or unresolved metric, and also when:

- a run on either side was not correct (a wrong output, a request that
  raised, a crash, an unsettled ledger);
- the change failed more operations in total than the parent;
- a workload has fewer than ten pairs of correct runs;
- a simulated-clock metric differs within a pair.

``--summary`` instead prints the median and quartiles of every metric of
one set of runs (traced runs included) as JSON, per workload.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def read_runs(path: str) -> List[dict]:
    """Every result in a result file or a directory of them."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    runs: List[dict] = []
    for name in files:
        with open(name) as fh:
            runs.extend(json.load(fh))
    return runs


def load_results(path: str) -> Dict[Tuple[str, int], dict]:
    """(workload, seed) -> untraced result."""
    return {(r["workload"], r["seed"]): r for r in read_runs(path) if not r["trace"]}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> dict:
    """Apply the rule to one metric's paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    worse = sign * (p_med - c_med) / p_med if p_med else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= WIN_SHARE * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1:
        call = "gain"
    elif worse > bound:
        call = "regression"
    elif spread > bound and not all_better:
        call = "unresolved"
    else:
        call = "same"
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "wins": wins, "pairs": len(parent),
        "delta": (c_med - p_med) / p_med if p_med else 0.0,
        "parent_spread": spread, "verdict": call,
    }


def summarize(runs: List[dict]) -> Dict[str, dict]:
    """Median, quartiles and spread of every metric, per workload."""
    out: Dict[str, dict] = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        entry: Dict[str, object] = {
            "runs": len(mine),
            "seeds": sorted(r["seed"] for r in mine),
            "correct": all(r["correct"] for r in mine),
        }
        for section in ("metrics", "raw", "sim", "layers"):
            tables = [r[section] for r in mine if section in r]
            if not tables:
                continue
            stats = {}
            for name in tables[0]:
                q1, med, q3 = quartiles([t[name] for t in tables])
                stats[name] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med if med else 0.0}
            entry[section] = stats
        out[workload] = entry
    return out


def compare(parent: Dict[Tuple[str, int], dict], change: Dict[Tuple[str, int], dict],
            spec: dict) -> Tuple[List[dict], List[str]]:
    """Rows for every (workload, metric) over the pairs of correct runs, and
    the problems that fail the comparison whatever the rows say."""
    problems: List[str] = []
    for side, runs in (("parent", parent), ("change", change)):
        for (workload, seed), r in sorted(runs.items()):
            if not r["correct"]:
                problems.append(f"{side} {workload} seed {seed} not correct: "
                                f"{r['failed']} of {r['attempted']} failed")
    failed = {side: sum(r["failed"] for r in runs.values())
              for side, runs in (("parent", parent), ("change", change))}
    if failed["change"] > failed["parent"]:
        problems.append(f"the change failed {failed['change']} operations, the parent {failed['parent']}")
    keys = sorted(k for k in set(parent) & set(change) if parent[k]["correct"] and change[k]["correct"])
    for key in keys:
        if parent[key]["sim"] != change[key]["sim"]:
            problems.append(f"simulated clock changed on {key[0]} seed {key[1]}: "
                            f"{parent[key]['sim']} != {change[key]['sim']}")
    rows: List[dict] = []
    workloads = sorted({w for w, __ in list(parent) + list(change)})
    if not workloads:
        problems.append("no results to compare")
    for workload in workloads:
        seeds = [s for w, s in keys if w == workload]
        if len(seeds) < MIN_PAIRS:
            problems.append(f"{workload}: {len(seeds)} pairs of correct runs; the rule needs {MIN_PAIRS}")
        if not seeds:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[(workload, s)]["metrics"][name] for s in seeds]
            c = [change[(workload, s)]["metrics"][name] for s in seeds]
            row = verdict(p, c, metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"], bound=metric["bound"])
            rows.append(row)
    return rows, problems


def print_report(rows: List[dict], problems: List[str]) -> None:
    header = (f"{'workload':14s} {'metric':16s} {'parent q1/med/q3':>32s} "
              f"{'change q1/med/q3':>32s} {'delta':>7s} {'wins':>5s} {'spread':>6s} verdict")
    print(header)

    def fmt(q: Tuple[float, float, float]) -> str:
        return "/".join(f"{v:.4g}" for v in q)

    for r in rows:
        print(f"{r['workload']:14s} {r['metric']:16s} {fmt(r['parent']):>32s} {fmt(r['change']):>32s} "
              f"{r['delta']:+7.2%} {r['wins']:>2d}/{r['pairs']:<2d} {r['parent_spread']:6.3f} {r['verdict']}")
    for line in problems:
        print(f"problem: {line}")
    if not problems:
        print(f"every run correct, at least {MIN_PAIRS} pairs per workload, "
              "simulated-clock metrics identical in every pair")


def run_pairs(parent_root: str, change_root: str, out: str, workloads: List[str]) -> None:
    """Run the benchmark in both checkouts with seeds 1 to MIN_PAIRS,
    alternating which goes first. A failing run still writes its result,
    which the comparison then reports."""
    sides = {"parent": parent_root, "change": change_root}
    for side in sides:
        os.makedirs(os.path.join(out, side), exist_ok=True)
    for n in range(MIN_PAIRS):
        order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [sys.executable, os.path.join(sides[side], "bench", "run.py"), "--seed", str(n + 1),
                   "--out", os.path.join(out, side, f"pair{n:02d}.json")]
            for workload in workloads:
                cmd += ["--workload", workload]
            print(f"pair {n} {side}: {' '.join(cmd[2:])}", flush=True)
            subprocess.run(cmd, cwd=sides[side], check=False, stdout=subprocess.DEVNULL)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.compare", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--run", nargs=2, metavar=("PARENT_ROOT", "CHANGE_ROOT"))
    parser.add_argument("--out", help="directory for the runs --run makes")
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--summary", nargs="+", metavar="RESULTS")
    args = parser.parse_args(argv)
    if args.summary:
        runs = [r for path in args.summary for r in read_runs(path)]
        print(json.dumps(summarize(runs), indent=1, sort_keys=True))
        return 0
    if args.run:
        if not args.out:
            parser.error("--run needs --out")
        run_pairs(*args.run, args.out, args.workload)
        args.parent, args.change = os.path.join(args.out, "parent"), os.path.join(args.out, "change")
    if not (args.parent and args.change):
        parser.error("give PARENT and CHANGE results, or --run")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows, problems = compare(load_results(args.parent), load_results(args.change), spec)
    print_report(rows, problems)
    bad = problems or any(r["verdict"] in ("regression", "unresolved") for r in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
