"""The JIT engine: the executor every hook runs FPM programs through.

One :class:`JitEngine` hangs off each kernel (``kernel.jit``). It

- compiles each program once, on its first run, and keeps the unit on the
  program itself (``Program.jit``), so a retired program takes its unit
  with it;
- runs the loop that chains compiled units across tail calls, resuming in
  the interpreter mid-chain when a tail target failed to compile (state
  hands over losslessly because compiled code operates on the same
  ``Region``/``Pointer`` values the interpreter uses).

The engine is fail-closed at every decision point: compilation failure,
an unexpected entry ABI, or an uncompilable tail target all land back on
the interpreter with observationally identical results.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ebpf.jit.compiler import CompiledUnit, JitReport, _JitHalt, compile_program
from repro.ebpf.memory import Pointer, Region
from repro.ebpf.vm import STACK_SIZE, TAIL_CALL_LIMIT, VM, VMError

__all__ = ["JitEngine"]


def _noop_charge(ns: float) -> None:
    return None


class JitEngine:
    """Compiles and runs FPM programs; one instance per kernel."""

    #: Placeholder with nothing behind it: bench/workloads.py reports it in Workload.config.
    enabled = True

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.stats = {
            "compiled": 0,
            "fallbacks": 0,
            "jit_runs": 0,
            "interp_runs": 0,
            # Placeholder that stays 0: bench/child.py reads it.
            "zero_copy_frames": 0,
        }

    # -------------------------------------------------------------- units

    def _record(self, program) -> Tuple[Optional[CompiledUnit], JitReport]:
        record = program.jit
        if record is None:
            record = program.jit = compile_program(program)
            self.stats["compiled" if record[0] is not None else "fallbacks"] += 1
        return record

    def unit_for(self, program) -> Optional[CompiledUnit]:
        """The compiled unit, compiling on first sight; None on fallback."""
        return self._record(program)[0]

    def report_for(self, program) -> JitReport:
        return self._record(program)[1]

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

        Falls back to a fresh interpreter when the program did not compile
        or is handed an ABI the compiled code was not specialized for;
        resumes in the interpreter mid-chain on an uncompilable tail
        target. Raises exactly what the interpreter would raise.
        """
        kernel = self.kernel
        unit = self.unit_for(program)
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
            "compiled": self.stats["compiled"],
            "fallbacks": self.stats["fallbacks"],
            "jit_runs": self.stats["jit_runs"],
            "interp_runs": self.stats["interp_runs"],
        }
