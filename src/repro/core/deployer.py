"""The Fast Path Deployer: compile → verify → load → atomic swap.

Re-attaching an XDP/TC program can lose packets for seconds (paper §IV-A2);
LinuxFP instead attaches a stable *dispatcher* once per interface whose only
job is to tail-call through a prog array. Deploying a new fast path is then
a single prog-array slot update — atomic, no loss window (Fig 4). Clearing
the slot makes the dispatcher fall through to Linux, so teardown is equally
safe.

Deployment is **transactional**: every fallible stage (verify, dispatcher
build, load, prog-array swap) runs before the serving slot is touched, so a
failure anywhere leaves the interface exactly where it was. What "where it
was" means depends on whether the last-good program is still semantically
current:

- If the staged program has the *same source* as the serving one (a retry
  of an identical build), the serving program is still correct — keep it.
- If the source differs, the kernel configuration changed and the old
  program now computes stale answers. Keeping it would *diverge* from the
  kernel, which is worse than being slow — so the interface is withdrawn to
  the (always-correct) Linux slow path.

Either way ``deploy()`` never raises: it records a :class:`DeployFailure`
and returns ``False``, leaving retry policy to the controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.fpm.library import render_dispatcher
from repro.core.synthesizer import SynthesizedPath
from repro.ebpf.loader import Loader
from repro.ebpf.maps import BpfMap, MapError, ProgArray
from repro.ebpf.minic import compile_c
from repro.ebpf.verifier import VerifierError, verify
from repro.testing import faults


@dataclass
class DeployedInterface:
    ifname: str
    hook: str
    prog_array: ProgArray
    dispatcher: object  # attachment handle
    current: Optional[SynthesizedPath] = None
    swaps: int = 0


@dataclass
class DeployFailure:
    """Why an interface is degraded (serving last-good or slow path)."""

    ifname: str
    stage: str  # verify | dispatcher | load | swap | synthesize
    error: str
    at_ns: int
    #: structured verifier diagnostics (program/pc/code/insn), when the
    #: failure came from the static verifier
    detail: Optional[Dict[str, object]] = None


@dataclass
class MigrationReport:
    """What happened to the old program's map state during a redeploy.

    Maps migrate when the old and new programs carry *distinct* map objects
    whose schemas (type + key/value size + ``schema_version``) match by
    name. Pinned (shared-object) maps need no migration — the state never
    left. Per-entry copy failures (injected faults, pressure in the target)
    degrade to a count, never a failed deploy.
    """

    ifname: str
    at_ns: int
    #: map name → entries copied into the new program's map
    migrated: Dict[str, int] = field(default_factory=dict)
    #: maps that could not (or did not need to) migrate, with the reason
    skipped: List[str] = field(default_factory=list)
    #: entries lost in the copy (target refused the update)
    dropped: int = 0

    @property
    def total_entries(self) -> int:
        return sum(self.migrated.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "ifname": self.ifname,
            "at_ns": self.at_ns,
            "migrated": dict(self.migrated),
            "skipped": list(self.skipped),
            "dropped": self.dropped,
            "total_entries": self.total_entries,
        }


@dataclass
class Quarantine:
    """A watchdog-imposed withdrawal with a hold-off before resynthesis."""

    ifname: str
    reason: str
    at_ns: int
    until_ns: int


class Deployer:
    def __init__(self, kernel, hook: str = "xdp") -> None:
        if hook not in ("xdp", "tc"):
            raise ValueError(f"bad hook {hook!r}")
        self.kernel = kernel
        self.hook = hook
        self.loader = Loader(kernel)
        self.deployed: Dict[str, DeployedInterface] = {}
        #: Interfaces whose last deploy attempt failed, by name. Presence
        #: here means "degraded": the interface serves last-good or slow path.
        self.failures: Dict[str, DeployFailure] = {}
        #: Interfaces the watchdog pulled out of the fast path.
        self.quarantined: Dict[str, Quarantine] = {}
        #: Latest state-migration report per interface (redeploys only).
        self.migrations: Dict[str, MigrationReport] = {}

    def _now_ns(self) -> int:
        return self.kernel.clock.now_ns

    def _ensure_dispatcher(self, ifname: str) -> DeployedInterface:
        entry = self.deployed.get(ifname)
        if entry is not None:
            return entry
        prog_array = ProgArray(f"linuxfp_jmp_{ifname}", max_entries=4)
        source = render_dispatcher(ifname, self.hook)
        dispatcher_prog = compile_c(
            source, name=f"linuxfp_dispatch_{ifname}", hook=self.hook, maps={"jmp": prog_array}
        )
        attachment = self.loader.load(dispatcher_prog)
        if self.hook == "xdp":
            self.loader.attach_xdp(ifname, attachment)
        else:
            self.loader.attach_tc(ifname, attachment)
        entry = DeployedInterface(ifname=ifname, hook=self.hook, prog_array=prog_array, dispatcher=attachment)
        self.deployed[ifname] = entry
        return entry

    def deploy(self, path: SynthesizedPath) -> bool:
        """Stage verify+load, then atomically swap; never raises.

        Returns True on success. On failure the interface keeps serving
        whatever it served before — last-good if still semantically current,
        otherwise the slow path — and the failure is recorded in
        :attr:`failures` for the controller's retry loop.
        """
        stage = "verify"
        frozen: List[BpfMap] = []
        report: Optional[MigrationReport] = None
        try:
            verify(path.program)
            stage = "dispatcher"
            entry = self._ensure_dispatcher(path.ifname)
            stage = "load"
            self.loader.load(path.program)
            stage = "migrate"
            report, frozen = self._migrate_maps(entry, path)
            stage = "swap"
            entry.prog_array.set_prog(0, path.program)  # the atomic pointer update
        except Exception as exc:  # noqa: BLE001 — degrade, never crash the control plane
            # The old program keeps serving (or we withdraw): its maps must
            # accept writes again.
            for frozen_map in frozen:
                frozen_map.frozen = False
            self.note_failure(path.ifname, stage, exc)
            entry = self.deployed.get(path.ifname)
            if entry is not None and entry.current is not None and entry.current.source != path.source:
                # Last-good is stale relative to the kernel config that
                # produced ``path`` — serving it would diverge. Fall all the
                # way back to the slow path, which is always correct.
                self.withdraw(path.ifname)
            return False
        entry.current = path
        entry.swaps += 1
        if report is not None:
            self.migrations[path.ifname] = report
        path.rebind_custom_maps()  # userspace now reads the live (migrated) maps
        self.failures.pop(path.ifname, None)
        self.quarantined.pop(path.ifname, None)
        self._flush_flow_cache(path.ifname, reason="swap")
        return True

    def _migrate_maps(self, entry: DeployedInterface, path: SynthesizedPath) -> Tuple[MigrationReport, List[BpfMap]]:
        """Copy the serving program's map state into the staged program.

        The old maps are *frozen* for the copy (writes refused, so the
        snapshot cannot tear) and stay frozen once the swap retires the old
        program; the caller unfreezes them if the swap fails. Never raises:
        a map that cannot migrate is skipped with a reason, a rejected entry
        is counted in ``dropped``.
        """
        report = MigrationReport(ifname=path.ifname, at_ns=self._now_ns())
        frozen: List[BpfMap] = []
        old_path = entry.current
        if old_path is None:
            return report, frozen  # first deploy (or serving slow path): nothing to carry
        old_maps = {m.name: m for m in getattr(old_path.program, "maps", [])}
        for new_map in getattr(path.program, "maps", []):
            old_map = old_maps.get(new_map.name)
            if old_map is None:
                report.skipped.append(f"{new_map.name}: no map of that name in the old program")
                continue
            if old_map is new_map:
                report.skipped.append(f"{new_map.name}: pinned (shared object, state never left)")
                continue
            if not old_map.byte_addressable:
                report.skipped.append(f"{new_map.name}: holds control-plane objects, not bytes")
                continue
            if old_map.schema() != new_map.schema():
                report.skipped.append(
                    f"{new_map.name}: schema mismatch {old_map.schema()} -> {new_map.schema()}"
                )
                continue
            old_map.frozen = True
            frozen.append(old_map)
            copied = 0
            if old_map.percpu and new_map.percpu and old_map.num_cpus == new_map.num_cpus:
                # Slot-wise freeze-copy: each CPU's private values land in
                # the same CPU's slot of the successor, so per-CPU locality
                # (and the aggregate) survive the swap exactly.
                for key, slots in old_map.percpu_items():
                    ok = True
                    for cpu, value in enumerate(slots):
                        if value is None:
                            continue
                        try:
                            new_map.update_cpu(cpu, key, value)
                        except (MapError, faults.InjectedFault):
                            ok = False
                    if ok:
                        copied += 1
                    else:
                        report.dropped += 1
            else:
                # Aggregate copy. For a percpu→percpu pair with differing
                # CPU counts the summed value lands on the new map's CPU 0:
                # totals are preserved even though locality is not.
                for key, value in old_map.items():
                    try:
                        new_map.update(key, value)
                        copied += 1
                    except (MapError, faults.InjectedFault):
                        report.dropped += 1
            report.migrated[new_map.name] = copied
        return report, frozen

    def jit_summary(self) -> Dict[str, Dict[str, object]]:
        """Per-interface JIT outcome for the *serving* program, from the
        kernel's engine (which compiles it now if no packet has yet).

        ``status`` is ``"compiled"``, or ``"fallback"`` when compilation
        failed and the interpreter serves, fail-closed. Withdrawn
        interfaces are omitted.
        """
        out: Dict[str, Dict[str, object]] = {}
        for ifname, entry in sorted(self.deployed.items()):
            if entry.current is None:
                continue
            report = self.kernel.jit.report_for(entry.current.program)
            out[ifname] = {
                "status": report.status,
                "insns": len(entry.current.program),
                "inline_mem_ops": report.inline_mem_ops,
                "folded_null_checks": report.folded_null_checks,
            }
        return out

    def note_failure(self, ifname: str, stage: str, error: Exception) -> DeployFailure:
        """Record a deploy-pipeline failure (also used for synthesis errors)."""
        detail = error.to_dict() if isinstance(error, VerifierError) else None
        failure = DeployFailure(
            ifname=ifname, stage=stage, error=str(error), at_ns=self._now_ns(), detail=detail
        )
        self.failures[ifname] = failure
        return failure

    def withdraw(self, ifname: str) -> None:
        """Clear the fast path; the dispatcher falls through to Linux.

        Idempotent: withdrawing an interface that is already on the slow
        path (or was never deployed) is a no-op.
        """
        entry = self.deployed.get(ifname)
        if entry is None or entry.current is None:
            return
        entry.prog_array.clear(0)  # clearing a slot cannot fail
        entry.current = None
        entry.swaps += 1
        self._flush_flow_cache(ifname, reason="withdraw")

    def quarantine(self, ifname: str, reason: str, holdoff_ns: int) -> Optional[Quarantine]:
        """Watchdog verdict: withdraw and hold off resynthesis briefly."""
        self.withdraw(ifname)
        now = self._now_ns()
        record = Quarantine(ifname=ifname, reason=reason, at_ns=now, until_ns=now + holdoff_ns)
        self.quarantined[ifname] = record
        self._flush_flow_cache(ifname, reason="quarantine")
        return record

    def in_holdoff(self, ifname: str) -> bool:
        q = self.quarantined.get(ifname)
        return q is not None and self._now_ns() < q.until_ns

    def drain_cpu(self, dead: int, target: int) -> int:
        """CPU hotplug: rehome per-CPU map slots of every deployed program.

        The dead CPU will never execute again, so flow state parked in its
        slots would be invisible to single-CPU fast-path probes from the new
        owner (aggregate control-plane reads stay correct regardless). Walks
        every serving program's per-CPU maps; per-map failures degrade to a
        skip, never an exception. Returns total values moved.
        """
        moved = 0
        for entry in self.deployed.values():
            if entry.current is None:
                continue
            for bpf_map in getattr(entry.current.program, "maps", []):
                drain = getattr(bpf_map, "drain_cpu", None)
                if drain is None:
                    continue
                try:
                    moved += drain(dead, target)
                except Exception:  # noqa: BLE001 — a frozen/faulted map must not wedge hotplug
                    continue
        return moved

    def teardown(self) -> None:
        """Detach every dispatcher (full LinuxFP removal).

        Exception-safe and idempotent: a device that vanished after its
        dispatcher was attached must not wedge removal of the others.
        """
        for ifname in list(self.deployed):
            try:
                if self.hook == "xdp":
                    self.loader.detach_xdp(ifname)
                else:
                    self.loader.detach_tc(ifname)
            except Exception:  # noqa: BLE001 — device already gone
                pass
            del self.deployed[ifname]
        self.failures.clear()
        self.quarantined.clear()
        cache = getattr(self.kernel, "flow_cache", None)
        if cache is not None:
            cache.flush(hook=self.hook, reason="teardown")

    def _flush_flow_cache(self, ifname: str, reason: str = "swap") -> None:
        """Swapping a program invalidates that interface's cached verdicts."""
        cache = getattr(self.kernel, "flow_cache", None)
        if cache is None:
            return
        dev = self.kernel.devices.get(ifname)
        if dev is None:
            cache.flush(hook=self.hook, reason=reason)
        else:
            cache.flush(hook=self.hook, ifindex=dev.ifindex, reason=reason)
