"""Bytecode → Python translation for verified FPM programs.

The translator reads the verifier's facts
(:class:`~repro.ebpf.analysis.interp.Analysis`, through the fault-free
:func:`~repro.ebpf.verifier.analyze`, so it is the program's one analysis)
and keeps no abstract state of its own beyond one block's worth of values.
An instruction the verifier never reached emits nothing, and so does a
branch edge it proved infeasible. Every operand's typed form comes from the
kinds the verifier joined over every path that reaches it:

``scalar``   a 64-bit scalar (a plain masked Python int at runtime)
``packet``   a packet pointer (a plain int: its offset into the frame)
``stack``    a stack pointer (a plain int: its offset into the 512-byte
             frame), with its byte offset when every path agrees on one
             constant (minic derives stack addresses from r10 with
             constant immediates, so in practice it always does)
``map``      a map object materialized by ``LD_MAP``
``mixed``    paths disagree: there is no typed form, so the translator
             raises :class:`JitError` and the interpreter serves the program

A real :class:`Pointer` is built only where a helper reads one as an
argument, or where a pointer is spilled into a slot the frame's ``Region``
holds. Each stack byte gets one of two storage classes, chosen from the same
facts: a **Python local** (``s504``, …) holds an 8-byte slot that every
reached access uses whole, at exactly its constant offset, and that no
helper's pointer argument covers; every other byte stays in a zeroed
``Region`` with the interpreter's spill bookkeeping (scalars as big-endian
bytes, a spilled pointer in ``_spilled``, and a scalar store calling the
invalidation only where an overlapping slot may hold a spilled pointer). A
program with no such byte allocates no ``Region``.

**Block layout.** Programs are loop-free, so the reached CFG is a DAG laid
out in pc order. A block with one predecessor is emitted inside that
predecessor's branch arm: an arm that always ends in a return is an ``if``
with the other successor continuing below it, otherwise both arms nest
under ``if``/``else``. A join point (two or more predecessors) is emitted
once, at the top level in pc order; an edge into it sets ``_g`` only where
a guarded join lies between, and a join tests ``if _g <= pc`` only where
some earlier edge jumps past it. A join that reaches ``exit`` within a few
straight-line instructions is copied into each predecessor instead, so the
common ``r0 = K; exit`` tails become one ``return``. Nesting is capped well
below Python's 100 indentation levels: a block that would nest deeper
starts a new guarded join.

**Values.** Within a block and every block nested in it, each register and
local is tracked as a constant, a Python variable, or a deferred read of
packet or stack bytes, so copies and spills (minic spills everything
through the stack) emit no code. The verifier's **constant fact** (the
range domain's ``[c, c]``, with a pointer's constant offset, joined over
every path: for each register and tracked slot where a block starts, and
for each instruction's result) seeds every block and replaces any result
it proves constant, so ``pkt + 22`` becomes ``_pkd[22]`` and a branch it
decides emits no test. A value reaches a variable only when something
needs it there: an operation that reads it, a write that would clobber
the only copy, or a join point where it is live. A variable that an
operand names is not written before the instruction reading it has read
it. A store to a local that no later path reads (**dead store**) emits
nothing. A deferred byte read that is shifted, masked and ORed into a
wider value and stored back becomes a slice copy, and **adjacent byte
moves fuse** into one slice, as hXDP's 6-byte MAC moves do. A deferred read
is forced before anything writes its bytes, and before every helper call.

**Flush rule.** The interpreter counts an instruction before executing it
and charges ``(executed - charged) * insn_fs`` before every helper call
(helpers read the clock) and at exit; the compiled code charges the same
counts at the same calls, at every exit and at every tail call, with the
counts compiled in as literals wherever the path from the last join fixes
them (``_n`` and ``_c`` are set only on edges into a join). A helper that
aborts raises the interpreter's error; its path's count was charged before
the call, as the interpreter charges it. The clock sums exact integers, so
the clock every helper sees, and the final clock, match the interpreter's
on every path.

Every program in a tail-call chain runs on a fresh zeroed frame, as in the
kernel and in the verifier's model of each program, so a tail call hands
nothing over but the entry arguments and the counters, and a chain that
continues in the interpreter (a tail target the JIT declined) starts that
program on its own fresh frame too.

:mod:`repro.ebpf.jit.layout` makes every decision that precedes emission
(typing, storage, CFG, liveness, block layout),
:mod:`repro.ebpf.jit.emit` emits the source and
:mod:`repro.ebpf.jit.values` holds its compile-time value algebra; this
module runs them and compiles the source. The compile is the only reader
of the verifier's constant facts (``Analysis.consts`` and
``Analysis.results``), so it releases them once the source is emitted; a
later compile of the same program proves it afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.ebpf import helpers as helpers_mod
from repro.ebpf.analysis.errors import VerifierError
from repro.ebpf.jit.emit import Emitter
from repro.ebpf.jit.layout import JitError, Layout
from repro.ebpf.memory import MemoryError_, Pointer, Region
from repro.ebpf.program import Program
from repro.ebpf.verifier import analyze
from repro.ebpf.vm import VMError

__all__ = ["CompiledUnit", "JitError", "JitReport", "compile_program"]


@dataclass
class JitReport:
    """What compilation did — ``fallback`` means the interpreter serves."""

    status: str  # "compiled" | "fallback"
    error: Optional[str] = None
    insns: int = 0
    blocks: int = 0  # basic blocks emitted (a copied join counts once per copy)
    inline_mem_ops: int = 0  # packet/stack accesses emitted with no checks
    stack_locals: int = 0  # 8-byte stack slots held in Python locals
    folded: int = 0  # results, branches and addresses known at compile time
    dead_stores: int = 0  # stores to locals that no later path reads
    fused_moves: int = 0  # byte moves merged into the slice before them
    guards: int = 0  # join points that still test ``_g``


@dataclass
class CompiledUnit:
    """One program's compiled executor.

    ``fn(env, args, charge_fs, insn_fs)`` runs the program on a fresh
    frame for the hook ABI ``args``, charging each flush of n instructions
    as ``charge_fs(n * insn_fs)``, and returns a 4-tuple
    ``(tag, value, executed, tail_msg)``: ``TAG_EXIT`` with the r0
    verdict, or ``TAG_TAIL`` with the prog-array slot to chain into
    (``tail_msg`` is the pre-baked limit-exceeded message for that call
    site). An abort raises what the interpreter raises.

    The unit holds no reference back to its program, and ``fn``'s globals
    do not hold ``fn``: a retired program and its unit are freed by
    reference counting alone.
    """

    fn: Callable
    source: str  # the generated Python, for debugging and tests

    TAG_EXIT = 0
    TAG_TAIL = 1


def _compile(program: Program) -> Tuple[CompiledUnit, JitReport]:
    # The deployer's proof, read without verify()'s fault site: a compile
    # must not trip armed chaos faults.
    try:
        facts = analyze(program)
        if facts.consts is None:
            # an earlier compile released the constant facts: prove the
            # program afresh
            program.analysis = None
            facts = analyze(program)
    except VerifierError as exc:
        raise JitError("verification failed: %s" % (exc,)) from exc
    try:
        layout = Layout(program, facts)
        report = JitReport(
            status="compiled",
            insns=len(program.insns),
            inline_mem_ops=layout.inline_mem_ops,
            stack_locals=len(layout.locals),
            guards=len(layout.guarded),
        )
        emitter = Emitter(program, facts, layout, report)
        source = emitter.source()
    finally:
        # the compile is the constant facts' only reader, declined or
        # not; lint and later verifies read the rest of the proof
        facts.consts = facts.results = None
    namespace = dict(emitter.ns)
    namespace.update(
        _Ptr=Pointer,
        _Region=Region,
        _Mem=MemoryError_,
        _HErr=helpers_mod.HelperError,
        _VMError=VMError,
    )
    try:
        code = compile(source, "<jit:%s>" % program.name, "exec")
        exec(code, namespace)
    except SyntaxError as exc:  # pragma: no cover - codegen bug guard
        raise JitError("generated source failed to compile: %s" % (exc,)) from exc
    # popped, so the function's globals do not reference the function
    return CompiledUnit(fn=namespace.pop("_fpm"), source=source), report


# -------------------------------------------------------------- interface

def compile_program(program: Program) -> Tuple[Optional[CompiledUnit], JitReport]:
    """Compile ``program`` from its verifier facts; fail-closed.

    Returns ``(unit, report)``; when the program does not verify, when an
    operand has no typed form, or on any codegen failure, the unit is
    ``None`` and ``report.status == "fallback"`` — the caller keeps
    interpreting, nothing is ever half-compiled.
    """
    try:
        return _compile(program)
    except JitError as exc:
        return None, JitReport(
            status="fallback", error=str(exc), insns=len(program.insns)
        )
    except Exception as exc:  # fail-closed: a compiler bug must never escape
        return None, JitReport(
            status="fallback",
            error="%s: %s" % (type(exc).__name__, exc),
            insns=len(program.insns),
        )
