"""fpmtool: a bpftool-style inspection CLI for the LinuxFP simulation.

Drives a canonical router/gateway scenario (LinuxFP controller attached),
injects a small traffic mix — normal forwarded flows plus a handful of
crafted oddballs that exercise known drop paths — and then inspects the
resulting kernel state, the same way ``bpftool`` / ``pwru`` / ``kfree_skb``
tracing would on a real host:

- ``drops``        per-reason drop table (and the conservation ledger);
                   ``--self-check`` runs the static drop-site audit only
- ``trace``        pwru-style per-packet journeys through the pipeline
- ``metrics``      the unified registry (Prometheus text or JSON)
- ``prog list``    deployed dispatchers and serving fast-path programs
- ``map dump``     each deployed interface's prog-array slots
- ``reliability``  storm-scale scorecard: drive a fault-armed traffic storm
                   (with mid-storm CPU hotplug) and print drops by reason,
                   incidents by kind, and per-CPU backlog high-water marks

Usage::

    PYTHONPATH=src python -m repro.tools.fpmtool drops --self-check
    PYTHONPATH=src python -m repro.tools.fpmtool --scenario gateway drops
    PYTHONPATH=src python -m repro.tools.fpmtool trace --filter proto=udp,dport=9 --limit 3
    PYTHONPATH=src python -m repro.tools.fpmtool metrics --format prom
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.netsim.packet import make_udp
from repro.observability.drop_reasons import all_reasons, scan_drop_sites, self_check
from repro.observability.tracer import TraceFilter, TraceFilterError

NUM_FLOWS = 64


# ------------------------------------------------------------------ traffic

def _build_topology(scenario: str, hook: str):
    from repro.measure.scenarios import setup_gateway, setup_router

    if scenario == "router":
        return setup_router("linuxfp", hook=hook)
    return setup_gateway("linuxfp", hook=hook)


def _drive_traffic(topo, packets: int) -> None:
    """Normal forwarded flows plus crafted packets for known drop paths."""
    nic = topo.dut_in.nic
    src_mac = topo.src_eth.mac
    dst_mac = topo.dut_in.mac
    for i in range(packets):
        pkt = make_udp(
            src_mac,
            dst_mac,
            "10.0.1.2",
            topo.flow_destination(i % NUM_FLOWS),
            sport=1024 + (i % NUM_FLOWS),
            dport=9,
        )
        nic.receive_from_wire(pkt.to_bytes())
    oddballs = [
        # TTL expires in the forward path -> ttl_exceeded
        make_udp(src_mac, dst_mac, "10.0.1.2", "10.100.0.1", dport=9, ttl=1),
        # no route installed for TEST-NET-1 -> no_route
        make_udp(src_mac, dst_mac, "10.0.1.2", "192.0.2.1", dport=9),
        # loopback source on the wire -> martian_source (rp_filter)
        make_udp(src_mac, dst_mac, "127.0.0.1", "10.100.0.1", dport=9),
        # first blacklist address -> nf_forward (gateway scenario only)
        make_udp(src_mac, dst_mac, "172.16.0.1", "10.100.0.1", dport=9),
        # truncated runt frame -> malformed
    ]
    for pkt in oddballs:
        nic.receive_from_wire(pkt.to_bytes())
    nic.receive_from_wire(b"\x00" * 10)


# ----------------------------------------------------------------- commands

def cmd_drops(args) -> int:
    if args.self_check:
        problems = self_check()
        sites = scan_drop_sites()
        if problems:
            for line in problems:
                print(line)
            print(f"fpmtool: drop-reason audit FAILED ({len(problems)} problem(s))")
            return 1
        print(
            f"fpmtool: drop-reason audit clean: {len(all_reasons())} registered "
            f"reason(s), {len(sites)} drop site(s)"
        )
        return 0

    topo = _build_topology(args.scenario, args.hook)
    _drive_traffic(topo, args.packets)
    stack = topo.dut.stack
    obs = topo.dut.observability
    print(f"== drop reasons ({args.scenario}/{args.hook}, {args.packets} flow packets) ==")
    table = obs.drops.table()
    if not table:
        print("  (no drops)")
    for subsys, reason, count in table:
        print(f"  {count:8d}  {subsys:10s} {reason}")
    print("== per-device ==")
    for (device, reason), count in sorted(obs.drops.by_device.items()):
        print(f"  {count:8d}  {device or '-':8s} {reason}")
    pending = stack.pending_packets()
    rx = stack.rx_packets + stack.tx_local_packets
    balanced = rx == stack.settled + pending
    print(
        f"ledger: rx+tx_local={rx} settled={stack.settled} pending={pending} "
        f"dropped={stack.dropped} -> {'balanced' if balanced else 'IMBALANCED'}"
    )
    return 0 if balanced else 1


def cmd_trace(args) -> int:
    try:
        flt = TraceFilter.parse(args.filter) if args.filter else TraceFilter()
    except TraceFilterError as exc:
        print(f"fpmtool: bad --filter: {exc}", file=sys.stderr)
        return 2
    topo = _build_topology(args.scenario, args.hook)
    tracer = topo.dut.observability.tracer
    tracer.arm(flt, capacity=max(args.limit, 16))
    _drive_traffic(topo, args.packets)
    tracer.disarm()
    traces = tracer.traces()[-args.limit:]
    for trace in traces:
        print("\n".join(trace.render()))
        print()
    summary = tracer.summary()
    print(
        f"fpmtool: {summary['matched']} matched, {summary['captured']} held, "
        f"{summary['overflowed']} overflowed (ring {summary['capacity']})"
    )
    return 0


def cmd_metrics(args) -> int:
    topo = _build_topology(args.scenario, args.hook)
    _drive_traffic(topo, args.packets)
    registry = topo.controller.metrics()
    if args.format == "json":
        print(registry.to_json())
    else:
        print(registry.to_prometheus(), end="")
    return 0


def cmd_prog(args) -> int:
    if args.prog_cmd != "list":
        print(f"fpmtool: unknown prog subcommand {args.prog_cmd!r}", file=sys.stderr)
        return 2
    topo = _build_topology(args.scenario, args.hook)
    _drive_traffic(topo, args.packets)
    deployed = topo.controller.deployer.deployed
    if not deployed:
        print("(no interfaces deployed)")
        return 0
    print(f"{'iface':8s} {'hook':4s} {'program':28s} {'insns':>6s} {'swaps':>6s} jit")
    for ifname in sorted(deployed):
        entry = deployed[ifname]
        current = entry.current
        if current is not None:
            name = current.program.name
            insns = str(len(current.program))
            report = topo.dut.jit.report_for(current.program)
            if report.status == "compiled":
                jit = (
                    f"compiled({report.inline_mem_ops} inline, {report.stack_locals} locals, "
                    f"{report.blocks} blocks, {report.guards} guards, {report.folded} folded, "
                    f"{report.dead_stores} dead stores, {report.fused_moves} fused moves)"
                )
            else:
                jit = report.status  # fallback
        else:
            name, insns, jit = "(slow path)", "-", "-"
        print(f"{ifname:8s} {entry.hook:4s} {name:28s} {insns:>6s} {entry.swaps:>6d} {jit}")
    return 0


def cmd_map(args) -> int:
    if args.map_cmd != "dump":
        print(f"fpmtool: unknown map subcommand {args.map_cmd!r}", file=sys.stderr)
        return 2
    topo = _build_topology(args.scenario, args.hook)
    _drive_traffic(topo, args.packets)
    deployed = topo.controller.deployer.deployed
    if not deployed:
        print("(no interfaces deployed)")
        return 0
    for ifname in sorted(deployed):
        entry = deployed[ifname]
        array = entry.prog_array
        slots = {i: array.get_prog(i) for i in range(array.max_entries)}
        live = {i: p for i, p in slots.items() if p is not None}
        print(f"{ifname} ({entry.hook}) prog_array {array.name}:")
        if not live:
            print("  (all slots empty: slow path)")
        for i, prog in sorted(live.items()):
            target = getattr(prog, "program", prog)
            name = getattr(target, "name", "?")
            print(f"  slot {i}: {name}")
    return 0


def _parse_seeds(spec: Optional[str], default: List[int]) -> List[int]:
    if not spec:
        return default
    try:
        return [int(s) for s in spec.split(",") if s.strip() != ""]
    except ValueError:
        raise SystemExit(f"fpmtool: bad --seeds {spec!r} (want e.g. 7,19,42)")


def cmd_reliability(args) -> int:
    from repro.measure.storm import StormConfig, run_storm, write_report

    seeds = _parse_seeds(args.seeds, [args.seed])
    reports = []
    for seed in seeds:
        config = StormConfig(
            seed=seed,
            num_cpus=args.cpus,
            hook=args.hook,
            packets=args.packets,
            arm_faults=not args.no_faults,
        )
        reports.append(run_storm(config))
    if args.out:
        write_report(reports, args.out)
        print(f"fpmtool: wrote {args.out} ({len(reports)} run(s))")
    exit_code = 0
    for report in reports:
        if _print_storm_report(report):
            exit_code = 1
    return exit_code


def _print_storm_report(report) -> bool:
    """Print one storm scorecard; returns True when the run failed."""
    config = report.config
    print(
        f"== reliability scorecard (seed={config.seed}, {config.num_cpus} CPUs, "
        f"{report.injected} packets in {report.bursts} bursts) =="
    )
    print("-- drops by reason --")
    if not report.drops_by_reason:
        print("  (no drops)")
    for reason, count in sorted(report.drops_by_reason.items(), key=lambda kv: -kv[1]):
        print(f"  {count:8d}  {reason}")
    print("-- incidents by kind --")
    if not report.incidents_by_kind:
        print("  (no incidents)")
    for kind, count in sorted(report.incidents_by_kind.items(), key=lambda kv: -kv[1]):
        print(f"  {count:8d}  {kind}")
    print("-- faults fired --")
    if not report.faults_fired:
        print("  (none)")
    for site, count in sorted(report.faults_fired.items(), key=lambda kv: -kv[1]):
        print(f"  {count:8d}  {site}")
    print("-- per-CPU backlog --")
    for cpu, (high, drops) in enumerate(zip(report.backlog_high_water, report.backlog_drops)):
        state = "offline" if cpu in report.offline_cpus else "online"
        print(f"  cpu{cpu}: high_water={high:5d} overflow_drops={drops:5d} ({state})")
    print("-- hotplug --")
    if not report.hotplug_events:
        print("  (none)")
    for event in report.hotplug_events:
        print(f"  {event}")
    if report.recovery_ns:
        worst = max(report.recovery_ns) / 1e6
        print(f"recovery: {len(report.recovery_ns)} episode(s), worst {worst:.1f} ms (simulated)")
    print(
        f"ledger: rx+tx_local={report.rx_packets + report.tx_local_packets} "
        f"settled={report.settled} pending={report.pending} "
        f"-> {'balanced' if report.conserved else 'IMBALANCED'}"
    )
    verdict = "PASS" if report.ok else "FAIL"
    print(
        f"verdict: {verdict} (conserved={report.conserved} "
        f"healthy={report.final_health_ok} quarantined={report.quarantined} "
        f"unhandled={len(report.unhandled_exceptions)})"
    )
    for exc in report.unhandled_exceptions:
        print(f"  unhandled: {exc}")
    return not report.ok


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpmtool", description="bpftool-style inspection for the LinuxFP simulation"
    )
    parser.add_argument("--scenario", choices=("router", "gateway"), default="gateway")
    parser.add_argument("--hook", choices=("xdp", "tc"), default="xdp")
    parser.add_argument("--packets", type=int, default=256, help="normal flow packets to inject")
    sub = parser.add_subparsers(dest="command", required=True)

    p_drops = sub.add_parser("drops", help="per-reason drop table / static audit")
    p_drops.add_argument(
        "--self-check",
        action="store_true",
        help="audit drop call sites against the registry (no traffic run)",
    )
    p_drops.set_defaults(func=cmd_drops)

    p_trace = sub.add_parser("trace", help="pwru-style packet journeys")
    p_trace.add_argument("--filter", default="", help="e.g. src=10.0.0.0/8,proto=udp,dport=9")
    p_trace.add_argument("--limit", type=int, default=4, help="traces to print")
    p_trace.set_defaults(func=cmd_trace)

    p_metrics = sub.add_parser("metrics", help="unified metrics registry")
    p_metrics.add_argument("--format", choices=("prom", "json"), default="prom")
    p_metrics.set_defaults(func=cmd_metrics)

    p_prog = sub.add_parser("prog", help="deployed fast-path programs")
    p_prog.add_argument("prog_cmd", choices=("list",))
    p_prog.set_defaults(func=cmd_prog)

    p_map = sub.add_parser("map", help="prog-array slots of each deployed interface")
    p_map.add_argument("map_cmd", choices=("dump",))
    p_map.set_defaults(func=cmd_map)

    p_rel = sub.add_parser("reliability", help="storm-scale reliability scorecard")
    p_rel.add_argument("--seed", type=int, default=0, help="storm RNG seed")
    p_rel.add_argument("--seeds", default="", help="comma-separated seeds (overrides --seed)")
    p_rel.add_argument("--cpus", type=int, default=8, help="DUT CPU count")
    p_rel.add_argument("--no-faults", action="store_true", help="run the storm with fault injection disarmed")
    p_rel.add_argument("--out", default="", help="write BENCH_reliability.json here")
    p_rel.set_defaults(func=cmd_reliability)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
