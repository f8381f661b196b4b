"""Verified-bytecode → Python JIT: the executor of every FPM program.

The interpreter (:mod:`repro.ebpf.vm`) pays per-instruction dispatch and
dynamic pointer-provenance checks. All of that is static for a *verified*
program: the
range-tracking verifier already proved every packet/stack access in
bounds and every register initialized on live paths, so a specialized
executor can drop the checks the proof made redundant.

:func:`compile_program` translates verified bytecode into one Python
function per program: the verifier's reached CFG laid out as nested
blocks, with a jump-target guard only at the join points some edge jumps
past. It reads the program's one verifier analysis (reachability, branch
outcomes, per-instruction operand kinds, spill facts, each helper call's
argument kinds and stack buffers, and the constants where each block
starts and of each result) and emits, block by block, the typed form those
facts select. The result

- keeps packet and stack pointers as plain integer offsets, and builds a
  real :class:`~repro.ebpf.memory.Pointer` only for a helper argument or
  a spill into the stack region;
- inlines packet loads/stores as direct slices with no bounds or
  provenance checks, at literal offsets where the verifier proved the
  pointer's offset constant;
- forwards constants and copies through registers and locals, drops
  stores that no later path reads, and turns byte-wise moves into slice
  copies, adjacent ones fused;
- holds every 8-byte stack slot that is only ever accessed whole, and
  that no helper buffer covers, in a Python local (minic spills
  everything, including the packet pointer, through r10); the other
  stack bytes stay in a region with the interpreter's spill bookkeeping;
- folds the per-instruction cost charges into one charge per run of
  instructions, flushed before every helper call because helpers read the
  clock, with the counts compiled in as literals; the clock sums exact
  integers, so the JIT charges what the interpreter charges in any
  grouping;
- runs every program of a tail-call chain on a fresh frame, as the
  interpreter does, so a tail call into a program the JIT cannot compile
  resumes in the interpreter mid-chain with nothing to hand over but the
  entry arguments and the counters.

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
