"""The JIT engine: the executor every hook runs FPM programs through.

One :class:`JitEngine` hangs off each kernel (``kernel.jit``). It

- compiles each program once, on its first run, and keeps the unit on the
  program itself (``Program.jit``), so a retired program takes its unit
  with it;
- runs the loop that chains compiled units across tail calls, resuming in
  the interpreter mid-chain when a tail target failed to compile. Every
  program in a chain starts on a fresh zeroed stack frame, compiled or
  interpreted, so only the entry arguments and the instruction and
  tail-call counters hand over;
- records in :attr:`JitEngine.served` what served the latest run
  (``jit``, ``interp``, or ``jit+interp`` when a chain resumed in the
  interpreter), which the packet tracer's ``fpm`` event reports;
- charges a run in whole femtoseconds through
  :meth:`~repro.kernel.kernel.Kernel.charge_fs`: it reads
  ``costs.ebpf_insn`` in femtoseconds from the cost model's table
  (``costs.fs``, :mod:`repro.netsim.cost`) once per run and hands the
  compiled code ``charge_fs`` and that count, so a flush of n
  instructions charges ``n * insn_fs``, as the interpreter does; the
  entry and tail-call costs come from the same table.

A run pays for little besides the program: one inline check of the hook
ABI, one :meth:`JitEngine.unit_for` per program of the chain, and no
``charge_ns`` call.

The engine is fail-closed at every decision point: compilation failure,
an unexpected entry ABI, or an uncompilable tail target all land back on
the interpreter with observationally identical results.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ebpf.jit.compiler import CompiledUnit, JitReport, compile_program
from repro.ebpf.memory import Pointer
from repro.ebpf.vm import TAIL_CALL_LIMIT, VM, VMError

__all__ = ["JitEngine"]


class JitEngine:
    """Compiles and runs FPM programs; one instance per kernel."""

    #: Placeholder with nothing behind it: bench/workloads.py reports it in Workload.config.
    enabled = True

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        #: What served the latest run: "jit", "interp" or "jit+interp".
        self.served = ""
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
        record = program.jit
        return (record if record is not None else self._record(program))[0]

    def report_for(self, program) -> JitReport:
        return self._record(program)[1]

    # ----------------------------------------------------------- executor

    def execute(self, program, args, env) -> Tuple[int, int]:
        """Run ``program`` like ``VM.run`` would; returns (verdict, executed).

        Falls back to a fresh interpreter when the program did not compile
        or is handed an ABI the compiled code was not specialized for;
        resumes in the interpreter mid-chain on an uncompilable tail
        target. Raises exactly what the interpreter would raise.
        """
        kernel = self.kernel
        unit = self.unit_for(program)
        # The verifier's proof (and thus every dropped bounds check)
        # assumes the hook ABI: r1 = base packet pointer, r2 = its length.
        if unit is None or not (
            len(args) == 3
            and isinstance(args[0], Pointer)
            and args[0].offset == 0
            and type(args[1]) is int
            and type(args[2]) is int
            and args[1] == len(args[0].region.data)
        ):
            self.stats["interp_runs"] += 1
            self.served = "interp"
            vm = VM(kernel)
            verdict = vm.run(program, args, env)
            return verdict, vm.insns_executed

        self.stats["jit_runs"] += 1
        self.served = "jit"
        fs_table = kernel.costs.fs
        charge_fs = kernel.charge_fs
        insn_fs = fs_table["ebpf_insn"]
        charge_fs(fs_table["ebpf_prog_entry"])
        executed = 0
        tail_calls = 0
        current = unit
        while True:
            tag, value, n, tail_msg = current.fn(env, args, charge_fs, insn_fs)
            executed += n
            if tag == CompiledUnit.TAG_EXIT:
                return value, executed
            # tail call: the interpreter's depth limit and tail-call charge
            tail_calls += 1
            if tail_calls > TAIL_CALL_LIMIT:
                raise VMError(tail_msg)
            charge_fs(fs_table["ebpf_tail_call"])
            target = getattr(value, "program", value)
            nxt = self.unit_for(target)
            if nxt is not None:
                current = nxt
                continue
            # uncompilable target: the interpreter resumes the chain with
            # the accumulated counters, on a fresh frame like any target
            self.stats["interp_runs"] += 1
            self.served = "jit+interp"
            vm = VM(kernel)
            verdict = vm.run(
                target,
                args,
                env,
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
