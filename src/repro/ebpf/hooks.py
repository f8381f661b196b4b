"""XDP and TC attachment wrappers.

These adapt a verified :class:`~repro.ebpf.program.Program` to the kernel's
hook contract (:mod:`repro.kernel.hooks_api`). Entry ABI (a documented
simplification of the real ctx structs): R1 = packet pointer, R2 = packet
length, R3 = ingress ifindex. Programs may rewrite the packet in place;
aborts (memory violations and the like) become drops, as with
``XDP_ABORTED``, flagged on the result so drop accounting can tell a fault
from a policy verdict.

Every invocation runs through the kernel's
:class:`~repro.ebpf.jit.JitEngine` (``kernel.jit``): compiled programs run
specialized, and a program the JIT declined runs in the interpreter with
identical observable behavior.
"""

from __future__ import annotations

from repro.ebpf.memory import Pointer, Region
from repro.ebpf.program import HOOK_TC, HOOK_XDP, Program
from repro.ebpf.vm import Env, VMError
from repro.kernel.hooks_api import (
    TC_ACT_REDIRECT,
    TC_ACT_SHOT,
    TcResult,
    XDP_ABORTED,
    XDP_REDIRECT,
    XdpResult,
)
from repro.testing import faults


def _observe_fpm(kernel, name: str, elapsed_ns: int) -> None:
    obs = kernel.observability
    obs.record_fpm(name, elapsed_ns)
    if obs.tracer.recording:
        # which executor served the run: jit, interp, or jit+interp
        obs.tracer.event("fpm", "%s [%s]" % (name, kernel.jit.served))


class XdpAttachment:
    """An XDP-hook driver program (runs on the raw frame, pre-sk_buff)."""

    def __init__(self, program: Program) -> None:
        if program.hook != HOOK_XDP:
            raise ValueError(f"{program.name} is not an XDP program")
        self.program = program
        self.invocations = 0
        self.aborts = 0

    def run_xdp(self, kernel, dev, frame: bytes) -> XdpResult:
        return self._invoke(kernel, dev, frame)

    def run_xdp_burst(self, kernel, dev, frames, queue: int = 0) -> list:
        """Run the program over a burst of frames (GRO/XDP-bulk analogue)."""
        return [self._invoke(kernel, dev, frame) for frame in frames]

    def _invoke(self, kernel, dev, frame) -> XdpResult:
        # Shared by both entry points, so a burst stays one hook call
        # rather than calling run_xdp once per frame.
        env = Env(kernel, redirect_verdict=XDP_REDIRECT)
        self.invocations += 1
        region = Region("pkt", bytearray(frame))
        args = [Pointer(region, 0), len(frame), dev.ifindex]
        t0 = kernel.clock.now_ns
        try:
            verdict, __ = kernel.jit.execute(self.program, args, env)
        except (VMError, faults.InjectedFault):
            # InjectedFault: a fault site fired inside a map op that the
            # helper layer doesn't absorb; treated exactly like a runtime
            # abort so nothing ever escapes the hook.
            self.aborts += 1
            _observe_fpm(kernel, self.program.name, kernel.clock.now_ns - t0)
            return XdpResult(XDP_ABORTED, frame, aborted=True)
        _observe_fpm(kernel, self.program.name, kernel.clock.now_ns - t0)
        return XdpResult(int(verdict), bytes(region.data), env.redirect_ifindex)


class TcAttachment:
    """A TC-hook program (runs with sk_buff context)."""

    def __init__(self, program: Program) -> None:
        if program.hook != HOOK_TC:
            raise ValueError(f"{program.name} is not a TC program")
        self.program = program
        self.invocations = 0
        self.aborts = 0

    def run_tc(self, kernel, dev, skb) -> TcResult:
        env = Env(kernel, redirect_verdict=TC_ACT_REDIRECT)
        self.invocations += 1
        frame = skb.wire_frame()
        region = Region("pkt", bytearray(frame))
        args = [Pointer(region, 0), len(frame), skb.ifindex]
        t0 = kernel.clock.now_ns
        try:
            verdict, __ = kernel.jit.execute(self.program, args, env)
        except (VMError, faults.InjectedFault):
            self.aborts += 1
            _observe_fpm(kernel, self.program.name, kernel.clock.now_ns - t0)
            return TcResult(TC_ACT_SHOT, frame, aborted=True)
        _observe_fpm(kernel, self.program.name, kernel.clock.now_ns - t0)
        return TcResult(int(verdict), bytes(region.data), env.redirect_ifindex)
