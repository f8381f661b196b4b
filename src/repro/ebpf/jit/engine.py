"""The JIT engine: per-kernel unit cache and the chained executor.

One :class:`JitEngine` hangs off each kernel (``kernel.jit``). It owns

- the compiled-unit cache (keyed by program identity, LRU-bounded, with
  strong references so ``id()`` reuse cannot alias two programs);
- the run loop that chains compiled units across tail calls, resuming in
  the interpreter mid-chain when a tail target failed to compile (state
  hands over losslessly because compiled code operates on the same
  ``Region``/``Pointer`` values the interpreter uses);
- the *chain facts* the zero-copy path needs: whether any program
  reachable through a prog array may write the packet, cached against
  :class:`ProgArray` version counters so fast-path swaps invalidate it.

The engine is fail-closed at every decision point: compilation failure,
an unexpected entry ABI, or an uncompilable tail target all land back on
the interpreter with observationally identical results.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.ebpf.jit.compiler import CompiledUnit, JitReport, _JitHalt, compile_program
from repro.ebpf.maps import ProgArray
from repro.ebpf.memory import Pointer, Region
from repro.ebpf.vm import STACK_SIZE, TAIL_CALL_LIMIT, VM, VMError

__all__ = ["JitEngine", "jit_env_default"]


def jit_env_default() -> bool:
    """The ``LINUXFP_JIT`` opt-in."""
    return os.environ.get("LINUXFP_JIT", "").lower() in ("1", "true", "on")


def _noop_charge(ns: float) -> None:
    return None


class JitEngine:
    """Compiles and runs FPM programs; one instance per kernel."""

    MAX_UNITS = 256

    def __init__(self, kernel, enabled: Optional[bool] = None) -> None:
        self.kernel = kernel
        self.enabled = jit_env_default() if enabled is None else enabled
        # id(program) -> (program, unit|None, report); strong program refs
        self._units: "OrderedDict[int, Tuple[object, Optional[CompiledUnit], JitReport]]" = OrderedDict()
        # id(program) -> (program, [(ProgArray, version)], writes_packet)
        self._chain_facts: Dict[int, Tuple[object, List[Tuple[ProgArray, int]], bool]] = {}
        self.stats = {
            "compiled": 0,
            "fallbacks": 0,
            "jit_runs": 0,
            "interp_runs": 0,
            "zero_copy_frames": 0,
        }

    # -------------------------------------------------------------- cache

    def _record(self, program) -> Tuple[Optional[CompiledUnit], JitReport]:
        key = id(program)
        rec = self._units.get(key)
        if rec is not None and rec[0] is program:
            self._units.move_to_end(key)
            return rec[1], rec[2]
        unit, report = compile_program(program)
        if unit is None:
            self.stats["fallbacks"] += 1
        else:
            self.stats["compiled"] += 1
        self._units[key] = (program, unit, report)
        self._chain_facts.pop(key, None)
        while len(self._units) > self.MAX_UNITS:
            old_key, _ = self._units.popitem(last=False)
            self._chain_facts.pop(old_key, None)
        return unit, report

    def unit_for(self, program) -> Optional[CompiledUnit]:
        """The compiled unit, compiling on first sight; None on fallback."""
        return self._record(program)[0]

    def report_for(self, program) -> JitReport:
        return self._record(program)[1]

    # -------------------------------------------------------- chain facts

    def writes_packet(self, program) -> bool:
        """Whether ``program`` itself may write the packet (conservative)."""
        unit = self.unit_for(program)
        return True if unit is None else unit.writes_packet

    def chain_writes_packet(self, program) -> bool:
        """Whether the packet may be written by ``program`` or anything
        reachable from it through prog-array tail calls. Cached against
        prog-array versions: a fast-path swap invalidates the fact."""
        key = id(program)
        cached = self._chain_facts.get(key)
        if cached is not None:
            prog, deps, result = cached
            if prog is program and all(pa.version == v for pa, v in deps):
                return result
        deps: List[Tuple[ProgArray, int]] = []
        result = self._walk_chain(program, deps)
        self._chain_facts[key] = (program, deps, result)
        return result

    def _walk_chain(self, program, deps: List[Tuple[ProgArray, int]]) -> bool:
        seen = set()
        stack = [program]
        while stack:
            prog = stack.pop()
            if id(prog) in seen:
                continue
            seen.add(id(prog))
            unit = self.unit_for(prog)
            if unit is None or unit.writes_packet:
                return True
            for m in getattr(prog, "maps", None) or ():
                if isinstance(m, ProgArray):
                    deps.append((m, m.version))
                    for target in m.slots().values():
                        stack.append(
                            target.program if hasattr(target, "program") else target
                        )
        return False

    def zero_copy_ok(self, program) -> bool:
        """True when the whole reachable chain is compiled and read-only:
        the hook may then run over the wire frame without copying it."""
        if not self.enabled:
            return False
        if self.unit_for(program) is None:
            return False
        return not self.chain_writes_packet(program)

    # ----------------------------------------------------------- executor

    def _abi_ok(self, args) -> bool:
        # The verifier's proof (and thus every dropped bounds check)
        # assumes the hook ABI: r1 = base packet pointer, r2 = its length.
        return (
            len(args) == 3
            and isinstance(args[0], Pointer)
            and args[0].offset == 0
            and type(args[1]) is int
            and type(args[2]) is int
            and args[1] == len(args[0].region.data)
        )

    def execute(self, program, args, env, charge_costs: bool = True) -> Tuple[int, int]:
        """Run ``program`` like ``VM.run`` would; returns (verdict, executed).

        Falls back to a fresh interpreter when disabled, uncompiled, or
        handed an ABI the compiled code was not specialized for; resumes
        in the interpreter mid-chain on an uncompilable tail target.
        Raises exactly what the interpreter would raise.
        """
        kernel = self.kernel
        unit = self.unit_for(program) if self.enabled else None
        if unit is None or not self._abi_ok(args):
            self.stats["interp_runs"] += 1
            vm = VM(kernel, charge_costs=charge_costs)
            verdict = vm.run(program, args, env)
            return verdict, vm.insns_executed

        self.stats["jit_runs"] += 1
        costs = kernel.costs
        if charge_costs:
            kernel.charge_ns(costs.ebpf_prog_entry)
            charge = kernel.charge_ns
            insn_cost = costs.ebpf_insn
        else:
            charge = _noop_charge
            insn_cost = 0.0
        stack = Region("stack", bytearray(STACK_SIZE), allow_pointers=True)
        args5 = list(args) + [None] * (5 - len(args))
        executed = 0
        tail_calls = 0
        current = unit
        while True:
            try:
                tag, value, n, tail_msg = current.fn(env, args5, stack, charge, insn_cost)
            except _JitHalt as halt:
                raise halt.error
            executed += n
            if tag == CompiledUnit.TAG_EXIT:
                return value, executed
            # tail call: replicate the interpreter's depth/charge sequence
            tail_calls += 1
            if tail_calls > TAIL_CALL_LIMIT:
                raise VMError(tail_msg)
            if charge_costs:
                kernel.charge_ns(costs.ebpf_tail_call)
            target = value.program if hasattr(value, "program") else value
            nxt = self.unit_for(target)
            if nxt is not None:
                current = nxt
                continue
            # uncompilable target: the interpreter resumes the chain on the
            # same stack region with the accumulated counters
            self.stats["interp_runs"] += 1
            vm = VM(kernel, charge_costs=charge_costs)
            verdict = vm.run(
                target,
                args,
                env,
                _stack=stack,
                _executed=executed,
                _tail_calls=tail_calls,
                _entry_charged=True,
            )
            return verdict, vm.insns_executed

    # ------------------------------------------------------------- status

    def summary(self) -> Dict[str, object]:
        """A metrics-friendly snapshot of engine state."""
        return {
            "enabled": self.enabled,
            "units": len(self._units),
            "compiled": self.stats["compiled"],
            "fallbacks": self.stats["fallbacks"],
            "jit_runs": self.stats["jit_runs"],
            "interp_runs": self.stats["interp_runs"],
            "zero_copy_frames": self.stats["zero_copy_frames"],
        }
