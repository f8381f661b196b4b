"""Verified-bytecode → Python JIT for the FPM fast path (ROADMAP item #1).

The interpreter (:mod:`repro.ebpf.vm`) pays per-instruction dispatch,
dynamic pointer-provenance checks, and a ``charge_ns`` call per executed
instruction. All of that is static for a *verified* program: the PR 3
range-tracking verifier already proved every packet/stack access in
bounds and every register initialized on live paths, so a specialized
executor can drop the checks the proof made redundant.

:func:`compile_program` translates verified bytecode into one Python
function per program (a guarded-block ladder over the forward-only CFG)
that

- inlines packet loads/stores as direct ``int.from_bytes`` slices with
  no bounds or provenance checks;
- tracks stack-slot spill state statically (minic spills everything,
  including the packet pointer, through r10) so scalar slot traffic
  bypasses the spill bookkeeping and pointer reloads become a dict
  lookup;
- folds the per-instruction cost charges into one batched charge per
  basic block, flushed before every helper call so helpers observe the
  exact same simulated clock as under the interpreter (cost parity is a
  tested invariant, not an approximation);
- keeps runtime values bit-identical to the interpreter's (real
  :class:`~repro.ebpf.memory.Pointer` objects, the real shared stack
  region), so a tail call into a program the JIT cannot compile resumes
  cleanly in the interpreter mid-chain.

Everything is fail-closed: any analysis or codegen surprise produces a
``fallback`` :class:`JitReport` and the interpreter keeps serving, with
a ``jit-fallback`` incident surfaced by the controller: a lost win,
never an outage. Opt-in via ``LINUXFP_JIT``
or ``Synthesizer(jit=True)`` / ``Controller(jit=True)``.
"""

from repro.ebpf.jit.compiler import CompiledUnit, JitError, JitReport, compile_program
from repro.ebpf.jit.engine import JitEngine

__all__ = [
    "CompiledUnit",
    "JitEngine",
    "JitError",
    "JitReport",
    "compile_program",
]
