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

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.fpm.library import render_dispatcher
from repro.core.synthesizer import SynthesizedPath
from repro.ebpf.loader import Loader
from repro.ebpf.maps import ProgArray
from repro.ebpf.minic import compile_c
from repro.ebpf.verifier import VerifierError, verify


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
        try:
            verify(path.program)
            stage = "dispatcher"
            entry = self._ensure_dispatcher(path.ifname)
            stage = "load"
            self.loader.load(path.program)
            stage = "swap"
            entry.prog_array.set_prog(0, path.program)  # the atomic pointer update
        except Exception as exc:  # noqa: BLE001 — degrade, never crash the control plane
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
        self.failures.pop(path.ifname, None)
        self.quarantined.pop(path.ifname, None)
        return True

    def jit_summary(self) -> Dict[str, Dict[str, object]]:
        """Per-interface JIT outcome for the *serving* program, from the
        kernel's engine (which compiles it now if no packet has yet).

        ``status`` is ``"compiled"``, or ``"fallback"`` when the JIT
        declined the program and the interpreter serves, fail-closed;
        ``inline_mem_ops`` counts the packet and stack accesses compiled with
        no checks, and ``stack_locals`` the 8-byte stack slots the compiled
        code holds in Python locals. Withdrawn interfaces are omitted.
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
                "stack_locals": report.stack_locals,
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

    def quarantine(self, ifname: str, reason: str, holdoff_ns: int) -> Optional[Quarantine]:
        """Watchdog verdict: withdraw and hold off resynthesis briefly."""
        self.withdraw(ifname)
        now = self._now_ns()
        record = Quarantine(ifname=ifname, reason=reason, at_ns=now, until_ns=now + holdoff_ns)
        self.quarantined[ifname] = record
        return record

    def in_holdoff(self, ifname: str) -> bool:
        q = self.quarantined.get(ifname)
        return q is not None and self._now_ns() < q.until_ns

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
