"""Measure one workload in this process and print the result as JSON.

Run by :mod:`bench.run` in a fresh subprocess per workload::

    python -m bench.child --workload NAME --seed N --seconds S [--trace]

The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

from bench.calib import CALIB_REF, calibrate, scale
from bench.trace import LAYERS, Tracer, coverage_problems
from bench.workloads import make

#: fresh set-ups timed for ``setup_s``; the first of them also pays for
#: the imports, so their median is a warm one
SETUP_BUILDS = 9
#: the run stops here even when the simulated-clock window is unfinished
HARD_CAP_S = 140.0
#: problems kept in the report
MAX_PROBLEMS = 20
RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


def _counters(workload) -> Dict[str, float]:
    """Program counters the per-layer ratios are computed from."""
    kernels = workload.kernels()
    duts = [kernels[n] for n in workload.dut_names()]
    out = {
        "rx": sum(k.stack.rx_packets for k in duts),
        "dropped": sum(k.stack.dropped for k in duts),
        "backlog_drops": sum(sum(k.softirq.backlog_drops) for k in duts),
        "backlog_high_water": max(max(k.softirq.backlog_high_water) for k in duts),
        "zero_copy": sum(k.jit.stats["zero_copy_frames"] for k in duts),
        "jit_runs": sum(k.jit.stats["jit_runs"] for k in duts),
        "fc_hits": sum(sum(k.flow_cache.stats.hits.values()) for k in duts),
        "fc_misses": sum(sum(k.flow_cache.stats.misses.values()) for k in duts),
        "reactions": 0,
        "redeploying": 0,
    }
    for ctrl in workload.controllers():
        out["reactions"] += len(ctrl.reactions)
        out["redeploying"] += sum(1 for r in ctrl.reactions if r.redeployed)
    return out


def _setup(workload) -> List[float]:
    """Build the workload SETUP_BUILDS times; each build's thread-CPU
    seconds, normalised by the calibrations on either side of it."""
    builds = []
    before = calibrate()
    for __ in range(SETUP_BUILDS):
        gc.collect()
        t0 = time.thread_time()
        workload.build()
        elapsed = time.thread_time() - t0
        after = calibrate()
        builds.append(elapsed * scale((before + after) / 2))
        before = after
    return builds


def measure(name: str, seed: int, seconds: float, trace: bool = False,
            trace_path: Optional[str] = None) -> dict:
    """Set up, warm up and measure one workload; returns the result dict.

    Every request is bracketed by two calibration loops; its host time is
    scaled by :func:`bench.calib.scale` of the mean of the two. The
    simulated-clock metrics cover exactly the first ``workload.sim_requests``
    measured requests, so they depend on the seed only; the loop runs on
    past ``seconds`` until those are done. A request whose calls or check
    raise counts every one of its units as failed, and the run goes on.
    """
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    workload = make(name, seed)
    builds = _setup(workload)
    workload.start()
    for i in range(workload.warmup):
        for __, fn in workload.steps(i):
            fn()
        workload.check(i)

    attempted = failed = 0
    problems: List[str] = []

    def note(found: List[str]) -> None:
        problems.extend(found[: max(0, MAX_PROBLEMS - len(problems))])

    before = _counters(workload)
    dut = workload.dut_names()[0]
    if tracer is not None:
        tracer.register(workload.kernels(), workload.dut_names(), workload.clock())
        tracer.active = True
    # per request: [host ns, traffic ns, frames]; request k runs between
    # calibrations k and k + 1
    rows: List[list] = []
    reconfig: List[tuple] = []  # (request, host ns)
    calibs = [calibrate()]
    sim_start, sim_end, sim_frames = workload.sim_snapshot(), None, 0
    clock_ns = time.thread_time_ns
    i = workload.warmup
    wall0 = time.perf_counter()
    while True:
        root = tracer.begin_request(i) if tracer is not None else None
        total = traffic = 0
        raised = None
        try:
            for label, fn in workload.steps(i):
                span = tracer.enter("control.netlink", "tool", dut) if root and label == "reconfig" else None
                t0 = clock_ns()
                try:
                    fn()
                finally:
                    dt = clock_ns() - t0
                    if span is not None:
                        tracer.exit(span)
                total += dt
                if label == "reconfig":
                    reconfig.append((len(rows), dt))
                else:
                    traffic += dt
        except Exception as exc:  # the program failed this request
            raised = exc
        if root is not None:
            tracer.end_request(root)
        calibs.append(calibrate())
        frames = workload.frames(i)
        rows.append([total, traffic, frames])
        try:
            units, bad, found = workload.check(i)
        except Exception as exc:
            units, bad, found = 1, 1, [f"check raised {exc!r}"]
        if raised is not None:  # every unit of a request that raised failed
            bad = units = max(units, 1)
            found = [f"raised {raised!r}"] + found
        attempted += units
        failed += bad
        note([f"request {i}: {p}" for p in found])
        i += 1
        if sim_end is None:
            sim_frames += frames
            if len(rows) == workload.sim_requests:
                sim_end = workload.sim_snapshot()
        elapsed = time.perf_counter() - wall0
        if sim_end is not None and elapsed >= seconds:
            break
        if elapsed >= HARD_CAP_S:
            failed += 1
            note([f"stopped after {elapsed:.0f} s, before {workload.sim_requests} requests"])
            break
    if tracer is not None:
        tracer.active = False
    if sim_end is None:  # stopped at the hard cap; already counted as a failure
        sim_end = workload.sim_snapshot()
    wall = time.perf_counter() - wall0
    after = _counters(workload)
    ledger = workload.ledger_problems()

    factors = [scale((a + b) / 2) for a, b in zip(calibs, calibs[1:])]
    host_us = [total * f / 1e3 for (total, __, __), f in zip(rows, factors)]
    traffic_ns = sum(t for __, t, __ in rows)
    traffic_norm_ns = sum(t * f for (__, t, __), f in zip(rows, factors))
    frames_total = sum(n for __, __, n in rows)
    # the run's overall scale, for numbers not timed per request
    factor = sum(host_us) * 1e3 / sum(total for total, __, __ in rows)

    busy = [b1 - b0 for b0, b1 in zip(sim_start[1], sim_end[1])]
    n_sim = min(len(rows), workload.sim_requests)
    sim = {
        "sim_ns_per_pkt": max(busy) / sim_frames,
        "sim_us_per_op": (sim_end[0] - sim_start[0]) / n_sim / 1e3,
    }
    metrics = {
        "setup_s": statistics.median(builds),
        "host_kpps": frames_total / traffic_norm_ns * 1e6,
        "host_op_p50_us": statistics.median(host_us),
        "host_op_p95_us": _percentile(host_us, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_us = [total / 1e3 for total, __, __ in rows]
    raw = {
        "host_kpps_raw": frames_total / traffic_ns * 1e6,
        "host_op_p50_us_raw": statistics.median(raw_us),
        "host_op_p95_us_raw": _percentile(raw_us, 95),
        "wall_kpps_raw": frames_total / wall / 1e3,
    }
    info = {
        "requests": len(rows),
        "sim_requests": n_sim,
        "frames": frames_total,
        "calib_median_s": statistics.median(calibs),
        "calib_iqr_over_median": _iqr_share(calibs),
        "calib_ref_s": CALIB_REF,
        "wall_s": wall,
        "setup_builds_s": builds,
        "config": workload.config(),
    }
    if reconfig:
        reconfig_ms = [dt * factors[k] / 1e6 for k, dt in reconfig]
        info["reconfig_p50_ms"] = statistics.median(reconfig_ms)
        info["reconfig_p95_ms"] = _percentile(reconfig_ms, 95)
    info.update(workload.info())
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "unit": workload.unit,
        "correct": failed == 0 and not ledger,
        "attempted": attempted,
        "failed": failed + len(ledger),
        "problems": problems + ledger,
        "metrics": metrics,
        "sim": sim,
        "raw": raw,
        "info": info,
    }
    if tracer is not None:
        layers, checks = _layer_metrics(tracer, workload, before, after, len(rows), factor, sim)
        result["layers"] = layers
        result["coverage_problems"] = checks
        result["correct"] = result["correct"] and not checks
        if trace_path:
            tracer.write(trace_path, {"workload": name, "seed": seed, "layers": layers,
                                      "coverage_problems": checks})
        tracer.uninstall()
    return result


def _iqr_share(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _layer_metrics(tracer, workload, before, after, ops, factor, sim):
    """Per-layer metrics of a traced run plus the coverage self-check."""
    ops = max(ops, 1)
    totals = tracer.layer_totals()
    counts = tracer.counts
    delta = {k: after[k] - before[k] for k in after}
    out: Dict[str, float] = {}
    for layer, can_fail in LAYERS:
        row = totals[layer]
        out[f"{layer}.calls_per_op"] = row["calls"] / ops
        out[f"{layer}.self_us_per_op"] = row["self_host_ns"] * factor / 1e3 / ops
        if not layer.startswith("control."):
            out[f"{layer}.sim_ns_per_op"] = row["self_sim_ns"] / ops
        if can_fail:
            out[f"{layer}.fails"] = row["fails"]
    out["clock.calls_per_op"] = counts["clock.calls"] / ops
    out["clock.costs_charge_per_op"] = counts["clock.costs_charge"] / ops
    out["memory.calls_per_op"] = counts["memory.calls"] / ops

    rx = delta["rx"]
    runs = tracer.program_runs
    slow = tracer.agg.get(("stack.slow", "Stack.netif_receive"))
    entries = totals["stack.rx"]["outer"]
    fc = delta["fc_hits"] + delta["fc_misses"]
    out["softirq.frames_per_batch"] = rx / entries if entries else 0.0
    out["softirq.backlog_high_water"] = after["backlog_high_water"]
    out["softirq.backlog_drops"] = delta["backlog_drops"]
    out["stack.slow_share"] = (slow.calls if slow else 0) / rx if rx else 0.0
    out["stack.drops_per_op"] = delta["dropped"] / ops
    out["hooks.zero_copy_share"] = delta["zero_copy"] / runs if runs else 0.0
    out["exec.jit_share"] = delta["jit_runs"] / runs if runs else 0.0
    out["exec.insns_per_run"] = tracer.insns / runs if runs else 0.0
    out["flowcache.hit_ratio"] = delta["fc_hits"] / fc if fc else 0.0
    out["control.redeploy_ratio"] = (
        delta["redeploying"] / delta["reactions"] if delta["reactions"] else 0.0
    )
    out["sim.ns_per_pkt"] = sim["sim_ns_per_pkt"]
    out["sim.us_per_op"] = sim["sim_us_per_op"]

    fired = {layer: totals[layer]["calls"] for layer, __ in LAYERS}
    fired.update(counts)
    return out, coverage_problems(workload.name, fired, out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true",
                        help="trace, and write the spans to bench/results/trace-<workload>.json")
    args = parser.parse_args(argv)
    trace_path = None
    if args.trace:
        os.makedirs(RESULTS, exist_ok=True)
        trace_path = os.path.join(RESULTS, f"trace-{args.workload}.json")
    result = measure(args.workload, args.seed, args.seconds, args.trace, trace_path)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
