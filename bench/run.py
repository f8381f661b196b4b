"""The LinuxFP benchmark: four paper workloads on two clocks.

Usage (from the repository root)::

    python3 bench/run.py --seed N [--workload NAME] [--seconds S] [--trace 0|1] [--out PATH]
    PYTHONPATH=src python -m bench.run --seed N [--workload NAME] [--trace]

Each workload runs in its own fresh subprocess, one at a time, with every
``LINUXFP_*`` variable removed so the default configuration is what gets
measured. Without ``--workload`` all four run. ``--seconds`` defaults to
``run_seconds`` of ``BENCHMARK.json``. With tracing on, each workload runs
twice (untraced, then traced, half the time each) and the per-layer metrics
are reported instead of the end-to-end ones.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 when any output was wrong, a request
raised, a workload's process crashed or timed out, a conservation ledger
did not settle, or the traced run's layer-coverage check failed. It is 2,
with no result line, only when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: a workload's children that together run longer than this are killed and
#: the run fails
WORKLOAD_TIMEOUT_S = 170.0
#: workload-specific numbers of the result's ``info``, printed but not gated
INFO_UNITS = {
    "reconfig_p50_ms": "ms",
    "reconfig_p95_ms": "ms",
    "sim_rr_rtt_us_intra": "sim_us",
    "sim_rr_rtt_us_inter": "sim_us",
}
#: units of the numbers printed beside the gated end-to-end metrics
UNGATED_UNITS = {
    "host_op_p95_us": "us",
    "host_kpps_raw": "kpps",
    "host_op_p50_us_raw": "us",
    "host_op_p95_us_raw": "us",
    "wall_kpps_raw": "kpps",
    "sim_ns_per_pkt": "sim_ns/pkt",
    "sim_us_per_op": "sim_us/op",
    **INFO_UNITS,
}


def load_spec() -> dict:
    with open(BENCH_JSON) as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    """The environment of a workload process: no ``LINUXFP_*`` overrides,
    the sources on the path, and a fixed hash seed so dict and set layouts
    do not differ between otherwise identical runs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LINUXFP_")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              timeout: float = WORKLOAD_TIMEOUT_S) -> dict:
    cmd = [sys.executable, "-m", "bench.child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's result: end-to-end metrics, or per-layer ones when
    tracing (with ``trace.overhead`` from an untraced run of equal length)."""
    if not trace:
        result = run_child(workload, seed, seconds, False)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        result["report"] = {name: (result["metrics"][name], unit) for name, unit in units.items()}
        return result
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    plain = run_child(workload, seed, seconds / 2, False)
    result = run_child(workload, seed, seconds / 2, True, max(1.0, deadline - time.monotonic()))
    result["layers"]["trace.overhead"] = plain["metrics"]["host_kpps"] / result["metrics"]["host_kpps"]
    # the tail is too noisy to gate (see README); report it untraced here
    result["layers"]["host_op_p95_us"] = plain["metrics"]["host_op_p95_us"]
    result["correct"] = result["correct"] and plain["correct"]
    result["attempted"] += plain["attempted"]
    result["failed"] += plain["failed"]
    result["problems"] = plain["problems"] + result["problems"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    result["report"] = {name: (result["layers"][name], unit) for name, unit in units.items()}
    return result


def crashed(workload: str, seed: int, trace: bool, exc: Exception) -> dict:
    """The failing result of a workload whose process crashed or timed out."""
    return {"workload": workload, "seed": seed, "trace": trace, "correct": False,
            "attempted": 1, "failed": 1, "problems": [str(exc).splitlines()[0]], "report": {}}


def print_result(result: dict) -> None:
    if "info" not in result:
        print(f"== {result['workload']} seed={result['seed']} FAILED: {result['problems'][0]}")
        return
    status = "ok" if result["correct"] else "FAILED"
    info = result["info"]
    print(f"== {result['workload']} seed={result['seed']} {status}: "
          f"{result['failed']} of {result['attempted']} {result['unit']}s failed, "
          f"{info['requests']} requests measured")
    print("   config: " + ", ".join(f"{k}={v}" for k, v in info["config"].items()))
    for name, (value, unit) in result["report"].items():
        print(f"   {name:40s} {value:14.6g} {unit}")
    if "layers" not in result:
        ungated = [(n, v, "") for n, v in result["metrics"].items() if n not in result["report"]]
        ungated += [(n, v, "raw, ") for n, v in result["raw"].items()]
        ungated += [(n, info[n], "") for n in INFO_UNITS if n in info]
        for name, value, kind in ungated:
            print(f"   {name:40s} {value:14.6g} {UNGATED_UNITS[name]} ({kind}not gated)")
        for name, value in sorted(result["sim"].items()):
            print(f"   {name:40s} {value:14.6g} {UNGATED_UNITS[name]} "
                  f"(simulated clock, first {info['sim_requests']} requests)")
    for problem in result["problems"] + result.get("coverage_problems", []):
        print(f"   problem: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.run", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seconds", type=float,
                        help="length of the measured phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=("0", "1"),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", help="write the full results here as JSON")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program sources at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workload or names
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(names)}")
    trace = args.trace == "1"
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    results = []
    for workload in chosen:
        try:
            result = run_workload(spec, workload, args.seed, seconds, trace)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            result = crashed(workload, args.seed, trace, exc)
        print_result(result)
        results.append(result)

    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")

    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
            for r in results for name, (value, unit) in r["report"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
