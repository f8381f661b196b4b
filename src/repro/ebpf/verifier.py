"""The static verifier.

A simplified analogue of the kernel's eBPF verifier, in two passes:

1. **Structural** (:func:`check_structure`): bounded program size, no
   backward jumps (the classic termination guarantee — synthesized FPMs are
   loop-free; iteration lives inside helpers, as with real
   ``bpf_fib_lookup``), jump targets in range, no falling off the end,
   valid access sizes, no writes to the frame pointer R10, helper ids and
   map references resolve.

2. **Range tracking** (:mod:`repro.ebpf.analysis.interp`): a path-sensitive
   abstract interpretation that types every register (scalar, packet
   pointer, packet length, stack pointer, map reference) and tracks u64
   ranges refined at conditional branches. It proves packet and stack
   accesses in bounds, models fat-pointer spill/fill through the stack, and
   enforces the declared helper signatures in ``HELPER_SIGS`` — so any
   accepted program can never raise a memory error in the VM. The fat
   pointers at runtime are defense-in-depth, not the safety mechanism. See
   ``docs/verifier.md``.

The entry ABI defaults to the hook convention (r1 = packet pointer,
r2 = packet length, r3 = ifindex scalar); pass ``entry_kinds`` to verify
programs with a different ABI, e.g. pure-scalar arithmetic kernels.

A program is analyzed once: the first successful hook-ABI analysis is kept
on the (immutable) program, and every later :func:`verify`, lint run and
JIT compile reads it. The ``verify`` fault site still fires on every call.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.ebpf.analysis.errors import VerifierError
from repro.ebpf.analysis.interp import Analysis, default_entry_kinds, interpret
from repro.ebpf.helpers import HELPERS
from repro.ebpf.isa import (
    ALU_IMM_OPS,
    ALU_REG_OPS,
    JMP_IMM_OPS,
    JMP_REG_OPS,
    MEM_SIZES,
    NUM_REGS,
    Insn,
    Op,
    R10,
)
from repro.ebpf.program import Program
from repro.ebpf.vm import STACK_SIZE
from repro.testing import faults

__all__ = ["MAX_INSNS", "VerifierError", "analyze", "check_structure", "verify"]

MAX_INSNS = 4096

_HOOK_REGS = (1, 2, 3)
_HOOK_KINDS = default_entry_kinds(len(_HOOK_REGS))


def verify(
    program: Program,
    entry_regs: Tuple[int, ...] = _HOOK_REGS,
    entry_kinds: Optional[Tuple[str, ...]] = None,
) -> Analysis:
    """Statically check ``program``; raises :class:`VerifierError`.

    Returns the :class:`Analysis` that proved it safe.
    """
    faults.fire("verify", program.name)
    return analyze(program, entry_regs, entry_kinds)


def analyze(
    program: Program,
    entry_regs: Tuple[int, ...] = _HOOK_REGS,
    entry_kinds: Optional[Tuple[str, ...]] = None,
) -> Analysis:
    """:func:`verify` without its fault site: lint and the JIT read the
    proof through here, so they never trip armed chaos faults.

    Under the hook ABI the analysis runs only if the program does not hold
    one yet, and a successful one is kept on ``program.analysis``; a
    rejected program keeps nothing, so a retry is analyzed (and rejected)
    again. Any other entry ABI is analyzed afresh and not kept.
    """
    hook_abi = tuple(entry_regs) == _HOOK_REGS and entry_kinds in (None, _HOOK_KINDS)
    if hook_abi and program.analysis is not None:
        return program.analysis
    check_structure(program)
    analysis = interpret(program, entry_regs, entry_kinds)
    if hook_abi:
        program.analysis = analysis
    return analysis


def check_structure(program: Program) -> None:
    """The structural pass alone (shared with the lint driver)."""
    insns = program.insns
    if len(insns) > MAX_INSNS:
        raise VerifierError(
            f"{program.name}: too many instructions ({len(insns)} > {MAX_INSNS})",
            program=program.name,
            code="too-many-insns",
        )

    for pc, insn in enumerate(insns):
        _check_structural(program, pc, insn)

    last = insns[-1]
    if last.op is not Op.EXIT and last.op is not Op.JA:
        raise VerifierError(
            f"{program.name}: control can fall off the end (last insn is {last.op.value})",
            program=program.name,
            pc=len(insns) - 1,
            code="fall-off-end",
            insn=repr(last),
        )


def _check_structural(program: Program, pc: int, insn: Insn) -> None:
    name = program.name

    def fail(code: str, message: str) -> None:
        raise VerifierError(
            f"{name}@{pc}: {message}", program=name, pc=pc, code=code, insn=repr(insn)
        )

    if not 0 <= insn.dst < NUM_REGS or not 0 <= insn.src < NUM_REGS:
        fail("bad-register", "bad register")

    writes_dst = insn.op in ALU_IMM_OPS or insn.op in ALU_REG_OPS or insn.op in (
        Op.MOV_IMM,
        Op.MOV_REG,
        Op.LDX,
        Op.NEG,
        Op.LD_MAP,
    )
    if writes_dst and insn.dst == R10:
        fail("frame-pointer-write", "write to frame pointer r10")

    if insn.op in (Op.LDX, Op.STX):
        if insn.imm not in MEM_SIZES:
            fail("bad-access-size", f"bad access size {insn.imm}")
    if insn.op is Op.ST_IMM and insn.src not in MEM_SIZES:
        fail("bad-access-size", f"bad access size {insn.src}")

    # static stack bounds for frame-pointer-relative access
    if insn.op is Op.LDX and insn.src == R10:
        _check_stack_off(name, pc, insn, insn.off, insn.imm)
    if insn.op in (Op.STX, Op.ST_IMM) and insn.dst == R10:
        size = insn.imm if insn.op is Op.STX else insn.src
        _check_stack_off(name, pc, insn, insn.off, size)

    if insn.op is Op.JA or insn.op in JMP_IMM_OPS or insn.op in JMP_REG_OPS:
        if insn.off < 0:
            fail("backward-jump", f"backward jump (off={insn.off})")
        # A JA with off == 0 is a harmless no-op hop to pc+1 (the historical
        # clause singling it out was dead code: only out-of-range targets
        # are rejected).
        target = pc + 1 + insn.off
        if target >= len(program.insns):
            fail("jump-out-of-range", f"jump target {target} out of range")

    if insn.op is Op.CALL and insn.imm not in HELPERS:
        fail("helper-unknown", f"unknown helper id {insn.imm}")

    if insn.op is Op.LD_MAP and not 0 <= insn.imm < len(program.maps):
        fail("map-unresolved", f"map index {insn.imm} unresolved")


def _check_stack_off(name: str, pc: int, insn: Insn, off: int, size: int) -> None:
    if off >= 0 or off + size > 0 or off < -STACK_SIZE:
        raise VerifierError(
            f"{name}@{pc}: stack access [{off}, {off + size}) outside [-{STACK_SIZE}, 0)",
            program=name,
            pc=pc,
            code="stack-out-of-bounds",
            insn=repr(insn),
        )
