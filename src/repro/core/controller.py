"""The LinuxFP controller daemon.

``Controller.start()`` introspects the kernel, builds the processing graph,
synthesizes the fast paths, and deploys them. Every subsequent netlink
notification re-derives the graph; when its signature changes, the affected
interfaces are re-synthesized and atomically swapped. Users keep using
iproute2/brctl/iptables/Kubernetes — the controller sees the resulting
kernel state changes and reacts (the paper's transparency claim).

Reaction time (Table VI) is measured in *wall-clock* time from notification
arrival to deployment completion, covering graph build + template render +
compile + verify + load + swap — the same span the paper measures.

The control plane is **self-healing**: a failure anywhere in the reaction
pipeline degrades the affected interface (last-good or slow path — see
:mod:`repro.core.deployer`) and never escapes to the netlink callback.
Failed work is retried with exponential backoff on the simulated clock
(driven by :meth:`tick`). A netlink overrun (lost notifications) triggers a
full introspection resync before the next rebuild. The differential
watchdog (:mod:`repro.core.watchdog`), when enabled, quarantines any
interface whose fast path disagrees with the kernel.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.core.capability import CapabilityManager
from repro.core.deployer import Deployer
from repro.core.graph import ProcessingGraph, TopologyManager
from repro.core.introspection import ServiceIntrospection
from repro.core.synthesizer import Synthesizer
from repro.core.watchdog import Watchdog
from repro.netlink.messages import NetlinkMsg

#: First retry delay after a failed rebuild/deploy; doubles per attempt.
RETRY_BASE_NS = 10_000_000  # 10 ms
#: Backoff ceiling.
RETRY_CAP_NS = 5_000_000_000  # 5 s
#: How long a watchdog-quarantined interface stays on the slow path before
#: the controller attempts resynthesis.
QUARANTINE_HOLDOFF_NS = 100_000_000  # 100 ms

MAX_INCIDENTS = 1000
#: How far back :meth:`Controller._incident` looks for a same-key incident to
#: coalesce into instead of appending a new entry (flap dedup).
INCIDENT_DEDUP_WINDOW = 8
#: Consecutive failed retry attempts before the controller stops hammering a
#: persistently-failing interface and quarantines it instead.
GIVE_UP_ATTEMPTS = 8
#: How long a given-up interface rests on the slow path before the next try.
#: Kept ≤ RETRY_CAP_NS so the effective retry cadence never exceeds the cap.
GIVE_UP_HOLDOFF_NS = 2_000_000_000  # 2 s


@dataclass
class ReactionRecord:
    trigger: str  # message type name of the notification
    seconds: float
    redeployed: List[str] = field(default_factory=list)


@dataclass
class Incident:
    """One entry in the controller's incident log."""

    # rebuild-error | synthesize-error | deploy-error | watchdog-mismatch |
    # netlink-overrun-resync | cpu-offline | cpu-online | router-* |
    # retry-give-up
    kind: str
    detail: str
    at_ns: int
    ifname: Optional[str] = None
    #: Occurrence count: repeats of the same (kind, detail, ifname) within
    #: the dedup window coalesce here instead of growing the log.
    count: int = 1


class Controller:
    """The LinuxFP daemon for one kernel."""

    def __init__(
        self,
        kernel,
        hook: str = "xdp",
        interfaces: Optional[List[str]] = None,
        enable_ipvs: bool = False,
        capabilities: Optional[CapabilityManager] = None,
        watchdog_every: int = 0,
    ) -> None:
        self.kernel = kernel
        self.hook = hook
        self.watchdog_every = watchdog_every
        self.watchdog: Optional[Watchdog] = None
        self.target_interfaces = interfaces
        self.topology = TopologyManager(enable_ipvs=enable_ipvs)
        self.synthesizer = Synthesizer(capabilities)
        self.deployer = Deployer(kernel, hook=hook)
        self.socket = kernel.bus.open_socket()
        self.introspection = ServiceIntrospection(self.socket)
        self.current_graph: Optional[ProcessingGraph] = None
        self.reactions: List[ReactionRecord] = []
        self.incidents: Deque[Incident] = deque(maxlen=MAX_INCIDENTS)
        #: Total incident occurrences ever recorded (dedup and the ring
        #: buffer cap the *log*, never this counter).
        self.incidents_total = 0
        self.rebuilds = 0
        self.resyncs = 0
        self.started = False
        self._reacting = False
        self._pending = False  # a notification arrived mid-reaction
        self._retry_at_ns: Optional[int] = None
        self._retry_attempts = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> ProcessingGraph:
        """Initial introspection + full deployment; begins watching changes."""
        self.introspection.start()
        self.introspection.add_listener(self._on_change)
        self.started = True
        if self.watchdog_every:
            self.watchdog = Watchdog(self, every=self.watchdog_every, hook=self.hook)
            self.kernel.watchdog = self.watchdog
        self._run_reaction("start", record=False)
        return self.current_graph

    def stop(self) -> None:
        """Withdraw every fast path and stop watching."""
        self.started = False
        if self.kernel.watchdog is self.watchdog:
            self.kernel.watchdog = None
        self.watchdog = None
        self.deployer.teardown()
        self.socket.close()

    # -------------------------------------------------------------- rebuild

    def _on_change(self, msg: NetlinkMsg) -> None:
        if not self.started:
            return
        if msg.type_name in ("CPU_OFFLINE", "CPU_ONLINE"):
            # Hotplug does not change the processing graph (programs are not
            # per-CPU), so no rebuild — but operators need the incident on
            # record.
            self._on_cpu_event(msg)
            return
        if self._reacting:
            # Deployment itself can cause notifications in exotic setups;
            # never recurse — but never *drop* the update either: latch it
            # and rebuild again once the current reaction finishes.
            self._pending = True
            return
        self._run_reaction(msg.type_name)

    def _on_cpu_event(self, msg: NetlinkMsg) -> None:
        cpu = msg.attrs.get("cpu", -1)
        online = msg.attrs.get("num_online", self.kernel.cpus.num_online)
        if msg.type_name == "CPU_OFFLINE":
            self._incident("cpu-offline", f"cpu{cpu} offline, {online} online")
        else:
            self._incident("cpu-online", f"cpu{cpu} online, {online} online")

    def _run_reaction(self, trigger: str, force: bool = False, record: bool = True) -> None:
        """One reaction plus any trailing rebuilds latched while reacting."""
        self._reacting = True
        try:
            self._guarded_react(trigger, force, record)
            rounds = 0
            while self._pending and rounds < 8:  # bounded: a reaction must converge
                self._pending = False
                rounds += 1
                self._guarded_react(trigger, force, record)
        finally:
            self._reacting = False
            self._pending = False

    def _guarded_react(self, trigger: str, force: bool, record: bool) -> None:
        """Rebuild without ever letting an exception reach the caller."""
        try:
            if self.socket.overrun:
                self._resync()
            t0 = time.perf_counter()
            redeployed = self._rebuild(force)
            elapsed = time.perf_counter() - t0
            if record:
                # every notification is evaluated; ones that change the graph
                # also carry the synthesize+deploy time (Table VI measures this)
                self.reactions.append(
                    ReactionRecord(trigger=trigger, seconds=elapsed, redeployed=redeployed or [])
                )
        except Exception as exc:  # noqa: BLE001 — the control plane must survive anything
            self._incident("rebuild-error", f"{type(exc).__name__}: {exc}")
            self._schedule_retry()
            return
        self._after_react()

    def _after_react(self) -> None:
        """Arm or clear the retry timer from the residual degradation."""
        if self.deployer.failures and self._retry_attempts >= GIVE_UP_ATTEMPTS:
            # Backoff exhausted: stop hammering the pipeline and park the
            # persistently-failing interfaces in quarantine (slow path) with
            # a longer hold-off. Attempts are deliberately NOT reset — only
            # an eventual success clears the streak.
            for ifname, failure in list(self.deployer.failures.items()):
                reason = f"gave up after {self._retry_attempts} attempts ({failure.stage}: {failure.error})"
                del self.deployer.failures[ifname]
                self.deployer.quarantine(ifname, reason, GIVE_UP_HOLDOFF_NS)
                self._incident("retry-give-up", reason, ifname)
        if self.deployer.failures:
            self._schedule_retry()
        elif self.deployer.quarantined:
            until = min(q.until_ns for q in self.deployer.quarantined.values())
            self._schedule_retry(at_ns=max(until, self.kernel.clock.now_ns + 1))
        else:
            self._retry_at_ns = None
            self._retry_attempts = 0

    def _schedule_retry(self, at_ns: Optional[int] = None) -> None:
        now = self.kernel.clock.now_ns
        if at_ns is None:
            self._retry_attempts += 1
            delay = min(RETRY_BASE_NS * (2 ** (self._retry_attempts - 1)), RETRY_CAP_NS)
            at_ns = now + delay
        if self._retry_at_ns is None or at_ns < self._retry_at_ns:
            self._retry_at_ns = at_ns

    def tick(self) -> bool:
        """The daemon's timer: call on simulated-clock advance.

        Fires a forced rebuild when the retry backoff is due or the netlink
        socket overran. Returns True when a reaction ran.
        """
        if not self.started or self._reacting:
            return False
        due = self._retry_at_ns is not None and self.kernel.clock.now_ns >= self._retry_at_ns
        if not due and not self.socket.overrun:
            return False
        if due:
            self._retry_at_ns = None
        self._run_reaction("tick", force=True, record=False)
        return True

    def _resync(self) -> None:
        """Full introspection re-dump after lost notifications (ENOBUFS)."""
        self.socket.clear_overrun()
        self.introspection.resync()
        self.resyncs += 1
        self._incident("netlink-overrun-resync", f"socket overruns={self.socket.overruns}")

    def on_watchdog_mismatch(self, ifname: str, detail: str) -> None:
        """Watchdog verdict: contain first (slow path is always correct),
        then schedule resynthesis after the hold-off."""
        self.deployer.quarantine(ifname, detail, QUARANTINE_HOLDOFF_NS)
        self._incident("watchdog-mismatch", detail, ifname)
        self._schedule_retry(at_ns=self.kernel.clock.now_ns + QUARANTINE_HOLDOFF_NS)

    def _incident(self, kind: str, detail: str, ifname: Optional[str] = None) -> None:
        """Record an incident, coalescing flaps.

        A repeat of the same (kind, detail, ifname) within the last
        :data:`INCIDENT_DEDUP_WINDOW` entries bumps that entry's ``count``
        and timestamp instead of appending, so a flapping CPU or a failing
        deploy cannot wash every other incident out of the bounded ring
        buffer.
        """
        self.incidents_total += 1
        now = self.kernel.clock.now_ns
        window = list(self.incidents)[-INCIDENT_DEDUP_WINDOW:]
        for incident in reversed(window):
            if incident.kind == kind and incident.detail == detail and incident.ifname == ifname:
                incident.count += 1
                incident.at_ns = now
                return
        self.incidents.append(Incident(kind=kind, detail=detail, at_ns=now, ifname=ifname))

    def _rebuild(self, force: bool = False) -> Optional[List[str]]:
        """Re-derive the graph; deploy deltas. Returns redeployed interface
        names, or None when there was nothing to do."""
        graph = self.topology.build(self.introspection.view, self.target_interfaces)
        unchanged = self.current_graph is not None and graph.signature() == self.current_graph.signature()
        if unchanged and not force and not self.deployer.failures and not self.deployer.quarantined:
            return None
        self.rebuilds += 1
        previous = self.current_graph
        self.current_graph = graph

        redeployed: List[str] = []
        active = set()
        for ifname, iface_graph in sorted(graph.interfaces.items()):
            if iface_graph.empty:
                continue  # nothing configured: pure Linux
            active.add(ifname)
            old = previous.interfaces.get(ifname) if previous is not None else None
            old_json = old.to_json() if old is not None else None
            new_json = iface_graph.to_json()
            entry = self.deployer.deployed.get(ifname)
            if (
                old_json is not None
                and entry is not None
                and entry.current is not None
                and old_json == new_json
                and ifname not in self.deployer.failures
                and ifname not in self.deployer.quarantined
            ):
                continue  # unchanged and healthy
            if self.deployer.in_holdoff(ifname):
                continue  # quarantined: wait out the hold-off on the slow path
            try:
                path = self.synthesizer.synthesize_interface(iface_graph, self.hook)
            except Exception as exc:  # noqa: BLE001 — degrade this interface only
                failure = self.deployer.note_failure(ifname, "synthesize", exc)
                detail = f"{type(exc).__name__}: {exc}"
                if failure.detail and failure.detail.get("code"):
                    detail = f"{detail} [{failure.detail['code']}]"
                self._incident("synthesize-error", detail, ifname)
                if entry is not None and entry.current is not None and old_json != new_json:
                    # Config changed but no current program exists: the
                    # last-good FPM now computes stale answers — withdraw.
                    self.deployer.withdraw(ifname)
                continue
            if path is None:
                continue
            if self.deployer.deploy(path):
                redeployed.append(ifname)
            else:
                failure = self.deployer.failures.get(ifname)
                detail = f"{failure.stage}: {failure.error}" if failure else "unknown"
                if failure and failure.detail and failure.detail.get("code"):
                    detail = f"{detail} [{failure.detail['code']}]"
                self._incident("deploy-error", detail, ifname)
        # withdraw interfaces that no longer need a fast path
        for ifname in list(self.deployer.deployed):
            if ifname not in active and self.deployer.deployed[ifname].current is not None:
                self.deployer.withdraw(ifname)
                redeployed.append(ifname)
        # drop degradation records for interfaces that no longer want one
        for ifname in list(self.deployer.failures):
            if ifname not in active:
                del self.deployer.failures[ifname]
        for ifname in list(self.deployer.quarantined):
            if ifname not in active:
                del self.deployer.quarantined[ifname]
        return redeployed

    # ------------------------------------------------------------- reporting

    def health(self) -> Dict[str, object]:
        """Operator view of the control plane's condition."""
        degraded = {n: f"{f.stage}: {f.error}" for n, f in sorted(self.deployer.failures.items())}
        quarantined = {n: q.reason for n, q in sorted(self.deployer.quarantined.items())}
        return {
            "ok": self.started and not degraded and not quarantined and not self.socket.overrun,
            "degraded": degraded,
            "quarantined": quarantined,
            "retry_at_ns": self._retry_at_ns,
            "retry_attempts": self._retry_attempts,
            "overruns": self.socket.overruns,
            "resyncs": self.resyncs,
            "incidents": len(self.incidents),
            "incidents_total": self.incidents_total,
            "offline_cpus": self.kernel.cpus.offline_cpus(),
            "watchdog": self.watchdog.summary() if self.watchdog is not None else None,
        }

    def deployed_summary(self) -> Dict[str, str]:
        """ifname → chain of FPMs currently deployed."""
        out: Dict[str, str] = {}
        for ifname, entry in sorted(self.deployer.deployed.items()):
            if entry.current is None:
                out[ifname] = "(slow path)"
            else:
                graph = self.current_graph.interfaces.get(ifname)
                out[ifname] = " -> ".join(n.nf for n in graph.nodes) if graph else "?"
        return out

    def last_reaction_seconds(self) -> Optional[float]:
        return self.reactions[-1].seconds if self.reactions else None

    def metrics(self):
        """The unified metrics registry over this kernel + control plane."""
        from repro.observability.metrics import MetricsRegistry

        return MetricsRegistry(self.kernel, controller=self)

    def dump_fast_path(self, ifname: str) -> Optional[str]:
        """Operator debugging: the synthesized C source plus the verified
        bytecode disassembly currently deployed on an interface."""
        entry = self.deployer.deployed.get(ifname)
        if entry is None or entry.current is None:
            return None
        path = entry.current
        return (
            f"// ===== {ifname} ({self.hook} hook, swap #{entry.swaps}) =====\n"
            f"{path.source.strip()}\n\n"
            f"{path.program.disassemble()}"
        )
