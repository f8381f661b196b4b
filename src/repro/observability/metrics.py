"""The unified metrics registry: one snapshot over everything observable.

Collects the stack's packet ledger and drop counters, netfilter per-chain
verdicts and scan counters, conntrack occupancy, the latency histograms,
tracer state, and — when a controller is attached — control plane health,
incidents, and watchdog verdicts.
Exported two ways: Prometheus text exposition (``to_prometheus``) for
scrape-style tooling and JSON (``to_json``) for scripts.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, List, Optional

from repro.observability.drop_reasons import drop_reason

_PROM_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _escape_label(value: str) -> str:
    return "".join(_PROM_LABEL_ESCAPES.get(ch, ch) for ch in str(value))


def _labels(**kwargs) -> str:
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in kwargs.items())
    return f"{{{inner}}}" if inner else ""


def _incidents_by_kind(ctl) -> Dict[str, int]:
    """Occurrences per incident kind; deduped entries weigh their count."""
    out: Counter = Counter()
    for incident in ctl.incidents:
        out[incident.kind] += getattr(incident, "count", 1)
    return dict(out)


class MetricsRegistry:
    """Snapshot/export facade over a kernel (and optional controller)."""

    def __init__(self, kernel, controller=None) -> None:
        self.kernel = kernel
        self.controller = controller

    # -------------------------------------------------------------- snapshot

    def snapshot(self) -> Dict[str, object]:
        kernel = self.kernel
        stack = kernel.stack
        obs = kernel.observability
        data: Dict[str, object] = {
            "host": kernel.hostname,
            "now_ns": kernel.clock.now_ns,
            "stack": {
                "rx_packets": stack.rx_packets,
                "tx_local_packets": stack.tx_local_packets,
                "settled": stack.settled,
                "pending": stack.pending_packets(),
                "forwarded": stack.forwarded,
                "delivered_local": stack.delivered_local,
                "outcomes": dict(stack.outcomes),
                "drops": dict(stack.drops),
            },
            "cpus": {
                "num_cpus": kernel.cpus.num_cpus,
                "num_online": kernel.cpus.num_online,
                "offline": kernel.cpus.offline_cpus(),
                "busy_ns": list(kernel.cpus.busy_ns),
                "packets": list(kernel.cpus.packets),
                "imbalance": kernel.cpus.imbalance(),
                "rps_steered": kernel.softirq.rps_steered,
                "nested_rx": kernel.softirq.nested_rx,
                "backlog_depths": kernel.softirq.backlog_depths(),
                "backlog_high_water": list(kernel.softirq.backlog_high_water),
                "backlog_drops": list(kernel.softirq.backlog_drops),
                "max_backlog": kernel.softirq.max_backlog,
                # Per-CPU ledger slices (cpu -1 = host/control context); each
                # global stack counter is the sum of its per-CPU family.
                "rx_by_cpu": {str(c): n for c, n in sorted(stack.rx_by_cpu.items())},
                "settled_by_cpu": {str(c): n for c, n in sorted(stack.settled_by_cpu.items())},
                "dropped_by_cpu": {str(c): n for c, n in sorted(stack.dropped_by_cpu.items())},
            },
            "drops_by_device": {
                f"{device}/{reason}": count
                for (device, reason), count in sorted(obs.drops.by_device.items())
            },
            "drops_by_subsys": dict(obs.drops.by_subsys),
            "netfilter": {
                chain: dict(verdicts)
                for chain, verdicts in sorted(kernel.netfilter.verdicts.items())
                if verdicts
            },
            "netfilter_scan": {
                chain: {
                    "compiles": kernel.netfilter.compiles[chain],
                    "scans": dict(scans),
                    "rules_scanned": dict(kernel.netfilter.rules_scanned[chain]),
                    "rules_tested": dict(kernel.netfilter.rules_tested[chain]),
                    "helper_parses": kernel.netfilter.helper_parses[chain],
                }
                for chain, scans in sorted(kernel.netfilter.scans.items())
                if scans
            },
            "conntrack": {
                "entries": len(kernel.conntrack),
                "states": dict(Counter(e.state for e in kernel.conntrack.entries())),
                "max_entries": kernel.conntrack.max_entries,
                "early_drops": kernel.conntrack.early_drops,
                "insert_failed": kernel.conntrack.insert_failed,
            },
            "stage_latency": obs.stage_latency.as_dict(),
            "fpm_latency": obs.fpm_latency.as_dict(),
            "tracer": obs.tracer.summary(),
        }
        data["jit_engine"] = kernel.jit.summary()
        if self.controller is not None:
            ctl = self.controller
            data["controller"] = {
                "health": ctl.health(),
                "rebuilds": ctl.rebuilds,
                "reactions": len(ctl.reactions),
                "incidents_by_kind": _incidents_by_kind(ctl),
                "deployed": ctl.deployed_summary(),
                "jit": ctl.deployer.jit_summary(),
            }
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True, default=str)

    # ------------------------------------------------------------ prometheus

    def to_prometheus(self) -> str:
        kernel = self.kernel
        stack = kernel.stack
        obs = kernel.observability
        lines: List[str] = []

        def family(name: str, kind: str, help_text: str) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        def sample(name: str, value, **labels) -> None:
            lines.append(f"{name}{_labels(**labels)} {value}")

        family("linuxfp_rx_packets_total", "counter", "Packets entering the pipeline at a driver.")
        sample("linuxfp_rx_packets_total", stack.rx_packets)
        family("linuxfp_tx_local_packets_total", "counter", "Locally-generated packets entering the output path.")
        sample("linuxfp_tx_local_packets_total", stack.tx_local_packets)
        family("linuxfp_settled_packets_total", "counter", "Packets that reached a terminal outcome (delivered, transmitted, or dropped).")
        sample("linuxfp_settled_packets_total", stack.settled)
        family("linuxfp_forwarded_packets_total", "counter", "Packets forwarded between interfaces.")
        sample("linuxfp_forwarded_packets_total", stack.forwarded)
        family("linuxfp_delivered_local_total", "counter", "Packets delivered to a local socket or ICMP handler.")
        sample("linuxfp_delivered_local_total", stack.delivered_local)

        family("linuxfp_cpu_busy_ns_total", "counter", "Simulated busy time per data-plane CPU.")
        for cpu, busy in enumerate(kernel.cpus.busy_ns):
            sample("linuxfp_cpu_busy_ns_total", busy, cpu=str(cpu))
        family("linuxfp_cpu_packets_total", "counter", "Packets processed per data-plane CPU (softirq dispatch).")
        for cpu, count in enumerate(kernel.cpus.packets):
            sample("linuxfp_cpu_packets_total", count, cpu=str(cpu))
        family("linuxfp_rps_steered_total", "counter", "Frames RPS-steered to a CPU other than their RX queue's owner.")
        sample("linuxfp_rps_steered_total", kernel.softirq.rps_steered)
        family("linuxfp_cpu_online", "gauge", "1 when the CPU is online, 0 after hot-unplug.")
        for cpu in range(kernel.cpus.num_cpus):
            sample("linuxfp_cpu_online", 1 if kernel.cpus.is_online(cpu) else 0, cpu=str(cpu))
        family("linuxfp_backlog_depth", "gauge", "Frames currently queued in the CPU's softirq backlog.")
        for cpu, depth in enumerate(kernel.softirq.backlog_depths()):
            sample("linuxfp_backlog_depth", depth, cpu=str(cpu))
        family("linuxfp_backlog_high_water", "gauge", "Deepest the CPU's softirq backlog has been.")
        for cpu, peak in enumerate(kernel.softirq.backlog_high_water):
            sample("linuxfp_backlog_high_water", peak, cpu=str(cpu))
        family("linuxfp_backlog_drops_total", "counter", "Frames refused at enqueue because the CPU's backlog was at netdev_max_backlog.")
        for cpu, count in enumerate(kernel.softirq.backlog_drops):
            sample("linuxfp_backlog_drops_total", count, cpu=str(cpu))
        family("linuxfp_rx_packets_by_cpu_total", "counter", "Per-CPU slice of the packet ledger's rx counter (cpu -1 = host context).")
        for cpu, count in sorted(stack.rx_by_cpu.items()):
            sample("linuxfp_rx_packets_by_cpu_total", count, cpu=str(cpu))
        family("linuxfp_settled_packets_by_cpu_total", "counter", "Per-CPU slice of the packet ledger's settled counter (cpu -1 = host context).")
        for cpu, count in sorted(stack.settled_by_cpu.items()):
            sample("linuxfp_settled_packets_by_cpu_total", count, cpu=str(cpu))

        family("linuxfp_outcomes_total", "counter", "Terminal non-drop outcomes by name.")
        for outcome, count in sorted(stack.outcomes.items()):
            sample("linuxfp_outcomes_total", count, outcome=outcome)

        family("linuxfp_drops_total", "counter", "Dropped packets by registered drop reason.")
        for name, count in sorted(stack.drops.items()):
            try:
                subsys = drop_reason(name).subsys
            except KeyError:
                subsys = "unknown"
            sample("linuxfp_drops_total", count, reason=name, subsys=subsys)

        family("linuxfp_device_drops_total", "counter", "Dropped packets by device and reason.")
        for (device, reason), count in sorted(obs.drops.by_device.items()):
            sample("linuxfp_device_drops_total", count, device=device, reason=reason)

        netfilter = kernel.netfilter
        family("linuxfp_netfilter_verdicts_total", "counter", "Slow-path netfilter chain traversals by final verdict; bpf_ipt_lookup verdicts on the fast path are not counted.")
        for chain, verdicts in sorted(netfilter.verdicts.items()):
            for verdict, count in sorted(verdicts.items()):
                sample("linuxfp_netfilter_verdicts_total", count, chain=chain, verdict=verdict)
        family("linuxfp_netfilter_compiles_total", "counter", "Rebuilds of a chain's compiled form, made by the first scan after a ruleset change.")
        for chain, count in sorted(netfilter.compiles.items()):
            sample("linuxfp_netfilter_compiles_total", count, chain=chain)
        family("linuxfp_netfilter_scans_total", "counter", "First-match chain scans by caller: helper (bpf_ipt_lookup) or slow (the slow path).")
        for chain, scans in sorted(netfilter.scans.items()):
            for path, count in sorted(scans.items()):
                sample("linuxfp_netfilter_scans_total", count, chain=chain, path=path)
        family("linuxfp_netfilter_rules_scanned_total", "counter", "Rules visited by first-match chain scans, by caller; each is charged the per-rule simulated cost.")
        for chain, counts in sorted(netfilter.rules_scanned.items()):
            for path, count in sorted(counts.items()):
                sample("linuxfp_netfilter_rules_scanned_total", count, chain=chain, path=path)
        family("linuxfp_netfilter_rules_tested_total", "counter", "Candidate rules the first-match index passed to a match decision, by caller; every other rule scanned was skipped on the host.")
        for chain, counts in sorted(netfilter.rules_tested.items()):
            for path, count in sorted(counts.items()):
                sample("linuxfp_netfilter_rules_tested_total", count, chain=chain, path=path)
        family("linuxfp_netfilter_helper_parses_total", "counter", "bpf_ipt_lookup calls that parsed their frame in full: the header reader declined it, or a candidate rule matches ports, interfaces, an ipset or conntrack state.")
        for chain, scans in sorted(netfilter.scans.items()):
            if scans:
                sample("linuxfp_netfilter_helper_parses_total", netfilter.helper_parses[chain], chain=chain)

        family("linuxfp_conntrack_entries", "gauge", "Conntrack table occupancy by state.")
        for state, count in sorted(Counter(e.state for e in kernel.conntrack.entries()).items()):
            sample("linuxfp_conntrack_entries", count, state=state)
        if kernel.conntrack.max_entries is not None:
            family("linuxfp_conntrack_max_entries", "gauge", "nf_conntrack_max table capacity.")
            sample("linuxfp_conntrack_max_entries", kernel.conntrack.max_entries)
        family("linuxfp_conntrack_early_drops_total", "counter", "Closing/unreplied entries evicted to admit new flows under pressure.")
        sample("linuxfp_conntrack_early_drops_total", kernel.conntrack.early_drops)
        family("linuxfp_conntrack_insert_failed_total", "counter", "Tracking refusals: table full and early-drop found no victim.")
        sample("linuxfp_conntrack_insert_failed_total", kernel.conntrack.insert_failed)

        self._prom_histograms(lines, family, sample)

        tracer = obs.tracer
        family("linuxfp_tracer_captured", "gauge", "Completed traces currently held in the ring.")
        sample("linuxfp_tracer_captured", len(tracer.ring))
        family("linuxfp_tracer_matched_total", "counter", "Packets that matched the armed trace filter.")
        sample("linuxfp_tracer_matched_total", tracer.matched)
        family("linuxfp_tracer_overflowed_total", "counter", "Completed traces evicted from the full ring.")
        sample("linuxfp_tracer_overflowed_total", tracer.overflowed)

        if self.controller is not None:
            ctl = self.controller
            health = ctl.health()
            family("linuxfp_controller_healthy", "gauge", "1 when no interface is degraded or quarantined.")
            sample("linuxfp_controller_healthy", 1 if health["ok"] else 0)
            family("linuxfp_controller_rebuilds_total", "counter", "Graph rebuilds executed.")
            sample("linuxfp_controller_rebuilds_total", ctl.rebuilds)
            family("linuxfp_controller_incidents_total", "counter", "Control-plane incidents by kind.")
            for kind, count in sorted(_incidents_by_kind(ctl).items()):
                sample("linuxfp_controller_incidents_total", count, kind=kind)
            if ctl.watchdog is not None:
                wd = ctl.watchdog.summary()
                family("linuxfp_watchdog_samples_total", "counter", "Differential watchdog samples by verdict.")
                for key in ("agreements", "mismatches", "punts"):
                    sample("linuxfp_watchdog_samples_total", wd[key], verdict=key)
            stats = self.kernel.jit.summary()
            family("linuxfp_jit_engine_runs_total", "counter", "FPM invocations served by compiled code vs the interpreter.")
            sample("linuxfp_jit_engine_runs_total", stats["jit_runs"], mode="jit")
            sample("linuxfp_jit_engine_runs_total", stats["interp_runs"], mode="interpreter")
            family("linuxfp_jit_engine_fallbacks_total", "counter", "Programs the JIT declined to compile (interpreter serves them).")
            sample("linuxfp_jit_engine_fallbacks_total", stats["fallbacks"])
            jit = ctl.deployer.jit_summary()
            if jit:
                family("linuxfp_jit_status", "gauge", "Serving-program JIT outcome (1 for the active status label).")
                for ifname, info in sorted(jit.items()):
                    for status in ("compiled", "fallback"):
                        sample("linuxfp_jit_status", 1 if info["status"] == status else 0, interface=ifname, status=status)
                family("linuxfp_jit_inline_mem_ops", "gauge", "Packet/stack accesses the JIT emitted with no bounds or provenance checks.")
                for ifname, info in sorted(jit.items()):
                    sample("linuxfp_jit_inline_mem_ops", info["inline_mem_ops"], interface=ifname)
                family("linuxfp_jit_stack_locals", "gauge", "8-byte stack slots the JIT holds in Python locals instead of the stack region.")
                for ifname, info in sorted(jit.items()):
                    sample("linuxfp_jit_stack_locals", info["stack_locals"], interface=ifname)

        return "\n".join(lines) + "\n"

    def _prom_histograms(self, lines, family, sample) -> None:
        obs = self.kernel.observability
        for metric, label, hist_set in (
            ("linuxfp_stage_latency_ns", "stage", obs.stage_latency),
            ("linuxfp_fpm_latency_ns", "fpm", obs.fpm_latency),
        ):
            if not len(hist_set):
                continue
            family(metric, "histogram", f"Simulated per-{label} latency, log2 buckets.")
            for name in hist_set.names():
                hist = hist_set[name]
                for le, cumulative in hist.prom_buckets():
                    sample(f"{metric}_bucket", cumulative, **{label: name, "le": le})
                sample(f"{metric}_sum", hist.total, **{label: name})
                sample(f"{metric}_count", hist.count, **{label: name})
