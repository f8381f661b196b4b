"""Checks of the benchmark itself (not part of the tier-1 suite).

Run explicitly from the repository root::

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys

import pytest

from bench import child, compare, frames, run, trace
from bench.trace import LAYERS, Tracer
from bench.workloads import BURST, WORKLOADS, ControlChurn, GatewayMix, K8sPodRR, Router64B, make

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def started(cls, seed):
    workload = cls(seed)
    workload.build()
    workload.start()
    return workload


def run_request(workload, i):
    for __, fn in workload.steps(i):
        fn()


# ------------------------------------------------------------- generator

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_simulated_metrics(name):
    first = run.run_child(name, 7, 0.1, False)
    second = run.run_child(name, 7, 0.1, False)
    assert first["correct"] and second["correct"], first["problems"] + second["problems"]
    assert first["sim"] == second["sim"]
    assert first["attempted"] > 0 and first["failed"] == 0


def _ip_level(workload):
    """The inputs with the per-build MAC addresses stripped."""
    if isinstance(workload, GatewayMix):
        bursts = []
        for i in range(8):
            workload.steps(i)
            bursts.append([f[12:] for f in workload.burst[0]])
        return bursts
    if isinstance(workload, K8sPodRR):
        return [t[1:] for t in workload.txns]
    if isinstance(workload, ControlChurn):
        return [(cmd, [f[12:] for f in burst]) for __, cmd, burst, __ in workload.requests]
    return [[f[12:] for f in burst] for burst, __ in workload.bursts]


@pytest.mark.parametrize("cls", [Router64B, GatewayMix, ControlChurn, K8sPodRR])
def test_seed_decides_the_inputs(cls):
    assert _ip_level(started(cls, 3)) == _ip_level(started(cls, 3))
    assert _ip_level(started(cls, 3)) != _ip_level(started(cls, 4))


# --------------------------------------------------------------- checker

def test_checker_flags_a_corrupted_egress_frame():
    workload = started(Router64B, 1)
    run_request(workload, 0)
    assert workload.check(0)[1] == 0
    run_request(workload, 1)
    bad = bytearray(workload.egress[5])
    bad[-1] ^= 0xFF
    workload.egress[5] = bytes(bad)
    units, failed, problems = workload.check(1)
    assert failed == 1 and problems


def test_checker_flags_a_missing_rr_response():
    workload = started(K8sPodRR, 1)
    run_request(workload, 0)
    assert workload.check(0)[1] == 0
    run_request(workload, 1)
    workload.responses[2].clear()
    units, failed, problems = workload.check(1)
    assert (units, failed) == (4, 1)


def test_checker_flags_a_wrong_verdict_after_reconfiguration():
    workload = started(ControlChurn, 1)
    run_request(workload, 0)  # iptables -A FORWARD -s X/32 -j DROP, then the check burst
    __, command, burst, __ = workload.requests[0]
    source = frames.ip_bytes(command.split()[3].split("/")[0])
    blocked = [f for f in burst if f[26:30] == source]
    assert blocked, "the check burst carries frames the new rule must drop"
    # the collector sees one of them forwarded, as if the rule were ignored
    workload.egress.append(frames.forwarded(blocked[0], workload.dut_out_mac, workload.sink_mac))
    assert workload.check(0)[1] == 1


# ------------------------------------------------------------------ trace

def test_spans_nest_and_self_times_are_non_negative(tmp_path):
    path = tmp_path / "trace.json"
    result = child.measure("router-64B", 1, 0.1, trace=True, trace_path=str(path))
    assert result["correct"], result["problems"] + result["coverage_problems"]
    data = json.loads(path.read_text())
    events = {e["args"]["span"]: e for e in data["traceEvents"]}
    assert events
    for event in events.values():
        parent = events.get(event["args"]["parent"])
        if parent is None:
            continue
        assert parent["ts"] <= event["ts"]
        assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"] + 1e-6
        assert parent["args"]["sim_start_ns"] <= event["args"]["sim_start_ns"]
        assert event["args"]["sim_end_ns"] <= parent["args"]["sim_end_ns"]
        # a program run is one exec span, not JitEngine.execute plus its VM.run
        assert not (event["cat"] == "exec" and parent["cat"] == "exec"), event
    assert any(e["cat"] == "exec" for e in events.values())
    for agg in data["aggregates"]:
        assert agg["self_host_ns"] >= 0 and agg["self_sim_ns"] >= 0, agg


def test_tracer_uninstall_restores_every_function():
    from repro.ebpf import helpers
    from repro.kernel.stack import Stack

    before = (Stack.receive, dict(helpers.HELPERS))
    tracer = Tracer()
    tracer.install()
    assert Stack.receive is not before[0]
    tracer.uninstall()
    assert (Stack.receive, helpers.HELPERS) == before


def test_every_layer_is_asserted_or_known_silent():
    asserted = {layer for layers in trace.MUST_FIRE.values() for layer in layers}
    known = asserted | set(trace.NEVER_FIRE_OK)
    assert {layer for layer, __ in LAYERS} <= known


# ------------------------------------------------------------ calibration

def test_calibration_loop_imports_nothing_from_repro():
    tree = ast.parse(open(os.path.join(ROOT, "bench", "calib.py")).read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported <= {"__future__", "time"}
    code = ("import sys, bench.calib as c; c.calibrate(1000); "
            "print(any(m == 'repro' or m.startswith('repro.') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": ROOT}, check=True)
    assert out.stdout.strip() == "False"


# --------------------------------------------------------------- the spec

def test_spec_names_every_reported_metric():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    result = run.run_child("control-churn", 2, 0.1, True)
    added_by_run = {"trace.overhead", "host_op_p95_us"}
    assert set(result["layers"]) | added_by_run == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} <= set(result["metrics"])


def test_compare_rule():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(parent, [v * 1.2 for v in parent], "higher", 0.1)["verdict"] == "gain"
    assert compare.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1)["verdict"] == "regression"
    assert compare.verdict(parent, list(parent), "higher", 0.1)["verdict"] == "same"
    noisy = [50.0, 150, 60, 140, 70, 130, 80, 120, 90, 110]
    assert compare.verdict(noisy, list(noisy), "lower", 0.1)["verdict"] == "unresolved"


def _results(seeds=range(1, 11), bad_seed=None, failed=1):
    """Untraced results of router-64B whose metrics all read 100."""
    spec = run.load_spec()
    out = {}
    for seed in seeds:
        wrong = seed == bad_seed
        out[("router-64B", seed)] = {
            "workload": "router-64B", "seed": seed, "trace": False, "correct": not wrong,
            "attempted": 64, "failed": failed if wrong else 0, "sim": {"sim_ns_per_pkt": 1.0},
            "metrics": {m["name"]: 100.0 for m in spec["end_to_end"]},
        }
    return out


def test_compare_passes_ten_correct_identical_pairs():
    rows, problems = compare.compare(_results(), _results(), run.load_spec())
    assert problems == []
    assert rows and all(r["verdict"] == "same" and r["pairs"] == 10 for r in rows)


def test_compare_fails_on_an_incorrect_run():
    __, problems = compare.compare(_results(), _results(bad_seed=3), run.load_spec())
    assert any("change router-64B seed 3 not correct" in p for p in problems)


def test_compare_fails_when_the_change_fails_more_operations():
    __, problems = compare.compare(_results(bad_seed=3, failed=1), _results(bad_seed=3, failed=5),
                                   run.load_spec())
    assert any("the change failed 5 operations, the parent 1" in p for p in problems)


def test_compare_fails_on_too_few_pairs():
    __, problems = compare.compare(_results(), _results(seeds=range(1, 10)), run.load_spec())
    assert problems == ["router-64B: 9 pairs of correct runs; the rule needs 10"]


def test_a_request_that_raises_is_a_failure_not_a_crash(monkeypatch):
    steps = Router64B.steps

    def flaky(self, i):
        if i == Router64B.warmup + 2:
            return [("traffic", lambda: 1 / 0)]
        return steps(self, i)

    monkeypatch.setattr(Router64B, "steps", flaky)
    result = child.measure("router-64B", 1, 0.1)
    assert not result["correct"] and result["failed"] >= BURST
    assert any("ZeroDivisionError" in p for p in result["problems"])


def test_a_crashed_workload_prints_a_failing_result(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("router-64B child exited 1:\nTraceback ...")

    monkeypatch.setattr(run, "run_child", crash)
    assert run.main(["--seed", "1", "--workload", "router-64B"]) == 1
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_make_rejects_unknown_workloads():
    with pytest.raises(ValueError):
        make("nope", 1)
