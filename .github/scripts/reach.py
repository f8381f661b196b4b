"""Line reach of ``src/repro``: which lines the repo's own entry points run.

Usage, from the checkout root::

    python .github/scripts/reach.py

Runs a fixed set of targets, each in a fresh interpreter with a
``sys.settrace``/``threading.settrace`` line collector that records lines
only in files under ``src/repro``:

- the four ``bench/`` workloads: two builds, the warm-up, then 40 checked
  requests (``bench/`` is only read);
- every ``benchmarks/test_*.py`` function, called directly with a stub
  ``benchmark`` whose ``pedantic`` just calls the function and a ``report``
  that writes nothing (pytest-benchmark clears the trace function around
  timed code, and the real ``report`` rewrites the results files);
- the ``fpmtool`` scorecards and packet tracer, ``fpmlint -v``, every
  example and ``python -m repro``.

A file's executable lines are the lines of its code objects (``co_lines``).
Writes ``reach.json`` at the checkout root (per file: executable and
reached lines) and prints a per-file table with the total. Exits 1 when a
target fails. The script re-runs itself with two arguments, a target name
and an output file, to run one target; that is not meant to be called by
hand.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro") + os.sep
WORKLOADS = ("router-64B", "gateway-mix", "k8s-pod-rr", "control-churn")
REQUESTS = 40
FPMTOOL = {
    "fpmtool-metrics-prom": ["--scenario", "gateway", "metrics", "--format", "prom"],
    "fpmtool-metrics-json": ["--scenario", "gateway", "metrics", "--format", "json"],
    "fpmtool-drops-self-check": ["drops", "--self-check"],
    "fpmtool-reliability": ["--packets", "2000", "reliability", "--seed", "7"],
    "fpmtool-trace": ["--scenario", "gateway", "trace"],
}


def targets():
    names = [f"bench:{name}" for name in WORKLOADS]
    names += [f"benchmark:{os.path.basename(p)}" for p in sorted(glob.glob(os.path.join(ROOT, "benchmarks", "test_*.py")))]
    names += sorted(FPMTOOL)
    names.append("fpmlint")
    names += [f"example:{os.path.basename(p)}" for p in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))]
    names.append("python-m-repro")
    return names


# ------------------------------------------------------------ one target

class Collector:
    """The lines run in files under ``src/repro``, per file."""

    def __init__(self):
        self.reached = {}

    def lines(self, frame, event, arg):
        if event == "line":
            self.reached[frame.f_code.co_filename].add(frame.f_lineno)
        return self.lines

    def calls(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self.reached:
            if not filename.startswith(PACKAGE):
                return None
            self.reached[filename] = set()
        return self.lines


class _Benchmark:
    def pedantic(self, target, args=(), kwargs=None, **_options):
        return target(*args, **(kwargs or {}))


class _Report:
    def table(self, name, title, lines):
        pass


def _exit_code(run):
    try:
        code = run()
    except SystemExit as stop:
        code = stop.code
    return 0 if code in (None, 0) else code


def _run_workload(name):
    from bench.workloads import make

    workload = make(name, 1)
    workload.build()
    workload.build()
    workload.start()
    for i in range(workload.warmup):
        for __, fn in workload.steps(i):
            fn()
        workload.check(i)
    problems = []
    for i in range(workload.warmup, workload.warmup + REQUESTS):
        for __, fn in workload.steps(i):
            fn()
        units, bad, found = workload.check(i)
        if bad:
            problems.append(f"request {i}: {bad} of {units} failed {found}")
    problems += workload.ledger_problems()
    if problems:
        raise RuntimeError("; ".join(problems[:5]))
    return 0


def _run_benchmark(filename):
    import importlib.util

    path = os.path.join(ROOT, "benchmarks", filename)
    spec = importlib.util.spec_from_file_location(filename[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for attr in sorted(vars(module)):
        if attr.startswith("test_"):
            getattr(module, attr)(_Benchmark(), _Report())
    return 0


def _run_path(path):
    import runpy

    def run():
        runpy.run_path(path, run_name="__main__")

    return _exit_code(run)


def run_target(name, collector):
    """Run one target with the collector installed; its exit code."""
    kind, _, arg = name.partition(":")
    sys.path[:0] = [SRC, ROOT]
    sys.settrace(collector.calls)
    threading.settrace(collector.calls)
    try:
        if kind == "bench":
            return _run_workload(arg)
        if kind == "benchmark":
            return _run_benchmark(arg)
        if kind == "example":
            return _run_path(os.path.join(ROOT, "examples", arg))
        if name in FPMTOOL:
            from repro.tools import fpmtool

            return _exit_code(lambda: fpmtool.main(FPMTOOL[name]))
        if name == "fpmlint":
            from repro.tools import fpmlint

            return _exit_code(lambda: fpmlint.main(["-v"]))
        if name == "python-m-repro":
            return _run_path(os.path.join(SRC, "repro", "__main__.py"))
        raise ValueError(f"unknown target {name!r}")
    finally:
        sys.settrace(None)
        threading.settrace(None)


def child(name, out):
    collector = Collector()
    code = run_target(name, collector)
    with open(out, "w") as fh:
        json.dump({path: sorted(lines) for path, lines in collector.reached.items()}, fh)
    return code


# ------------------------------------------------------------- the report

def executable_lines(path):
    with open(path, "rb") as fh:
        code = compile(fh.read(), path, "exec")
    lines = set()
    stack = [code]
    while stack:
        code = stack.pop()
        lines.update(line for __, __, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    names = targets()
    reached = {}
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, name in enumerate(names):
            out = os.path.join(tmp, f"{i}.json")
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), name, out],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )
            status = "ok" if proc.returncode == 0 else f"FAILED (exit {proc.returncode})"
            print(f"{name:40s} {time.perf_counter() - t0:6.1f} s  {status}", flush=True)
            if proc.returncode != 0:
                failed.append(name)
                print((proc.stdout + proc.stderr)[-3000:])
            if os.path.exists(out):
                with open(out) as fh:
                    for path, lines in json.load(fh).items():
                        reached.setdefault(path, set()).update(lines)

    files = {}
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)):
        executable = executable_lines(path)
        files[os.path.relpath(path, SRC)] = {
            "executable": sorted(executable),
            "reached": sorted(executable & reached.get(path, set())),
        }
    total_exec = sum(len(f["executable"]) for f in files.values())
    total_reached = sum(len(f["reached"]) for f in files.values())
    with open(os.path.join(ROOT, "reach.json"), "w") as fh:
        json.dump(
            {
                "targets": names,
                "failed": failed,
                "total": {"executable": total_exec, "reached": total_reached},
                "files": files,
            },
            fh,
            indent=1,
        )

    print(f"\n{'file':48s} {'reached':>8s} {'exec':>6s} {'share':>7s}")
    for path, f in files.items():
        n, r = len(f["executable"]), len(f["reached"])
        print(f"{path:48s} {r:8d} {n:6d} {100.0 * r / max(n, 1):6.1f}%")
    print(f"{'total':48s} {total_reached:8d} {total_exec:6d} {100.0 * total_reached / total_exec:6.1f}%")
    if failed:
        print(f"failed targets: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) == 3:
        sys.exit(child(sys.argv[1], sys.argv[2]))
    sys.exit(main())
