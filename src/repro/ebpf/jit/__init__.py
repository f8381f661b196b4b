"""Verified-bytecode → Python JIT: the executor of every FPM program.

The interpreter (:mod:`repro.ebpf.vm`) pays per-instruction dispatch,
dynamic pointer-provenance checks, and a ``charge_ns`` call per executed
instruction. All of that is static for a *verified* program: the
range-tracking verifier already proved every packet/stack access in
bounds and every register initialized on live paths, so a specialized
executor can drop the checks the proof made redundant.

:func:`compile_program` translates verified bytecode into one Python
function per program (a guarded-block ladder over the forward-only CFG).
It runs no analysis of its own: it reads the program's one verifier
analysis (reachability plus per-instruction operand kinds and spill
facts) and emits, instruction by instruction, the typed form those facts
select. The result

- inlines packet loads/stores as direct ``int.from_bytes`` slices with
  no bounds or provenance checks;
- uses the verifier's stack spill facts (minic spills everything,
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

Every XDP/TC hook runs its program through :class:`JitEngine`, which
compiles each program once, on its first run. There is no switch: as on
kernels built with ``CONFIG_BPF_JIT_ALWAYS_ON``, the interpreter
(:mod:`repro.ebpf.vm`) is only the engine's fail-closed fallback and the
reference the tests compare against. A program that does not verify, an
operand whose kinds differ across paths (so no typed form fits), or any
codegen surprise produces a ``fallback`` :class:`JitReport` and the
interpreter serves that program: a lost win, never an outage.
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
