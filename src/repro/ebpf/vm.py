"""The eBPF virtual machine.

Executes :class:`~repro.ebpf.program.Program` instructions with:

- per-instruction cost accounting against the kernel clock — the mechanism
  that turns LinuxFP's "synthesize only what the configuration needs" into
  measurable speedups;
- runtime memory safety via fat pointers (:mod:`repro.ebpf.memory`);
- eBPF semantics for the sharp edges: division by zero yields 0, tail calls
  are depth-limited jumps through a prog array, and any safety violation
  aborts the program (the hook layer drops the packet).
"""

from __future__ import annotations

from typing import List, Optional

from repro.ebpf import helpers as helpers_mod
from repro.ebpf.isa import (
    ALU_IMM_OPS,
    ALU_REG_OPS,
    JMP_IMM_OPS,
    JMP_REG_OPS,
    MASK64,
    MEM_SIZES,
    NUM_REGS,
    Insn,
    Op,
    R0,
    R1,
    R10,
)
from repro.ebpf.maps import ProgArray
from repro.ebpf.memory import MemoryError_, Pointer, Region, Word
from repro.ebpf.program import Program

STACK_SIZE = 512
TAIL_CALL_LIMIT = 33
DEFAULT_INSN_LIMIT = 1_000_000


class VMError(Exception):
    """Program aborted: memory violation, bad ALU on pointers, runaway, …"""


def _signed64(value: int) -> int:
    """Interpret a 64-bit word as signed (pointer offsets may be negative)."""
    return value - (1 << 64) if value >= (1 << 63) else value


def _entry_regs(entry_args: List[Word]) -> List[Optional[Word]]:
    """A program's registers at entry: the arguments in R1.., and R10 at
    the top of a fresh zeroed frame (a tail-called program cannot read its
    caller's stack)."""
    regs: List[Optional[Word]] = [None] * NUM_REGS
    for i, arg in enumerate(entry_args):
        regs[R1 + i] = arg
    regs[R10] = Pointer(Region("stack", bytearray(STACK_SIZE), allow_pointers=True), STACK_SIZE)
    return regs


class Env:
    """Per-invocation environment shared with helpers: the kernel, the
    hook's redirect verdict and target, and ``bpf_trace_printk``'s
    records."""

    def __init__(self, kernel, redirect_verdict: int) -> None:
        self.kernel = kernel
        self.redirect_verdict = redirect_verdict
        self.redirect_ifindex: Optional[int] = None
        self.trace: List[tuple] = []


class VM:
    """Interprets programs; one instance is reusable across invocations."""

    def __init__(self, kernel, insn_limit: int = DEFAULT_INSN_LIMIT) -> None:
        self.kernel = kernel
        self.insn_limit = insn_limit
        self.insns_executed = 0

    def run(
        self,
        program: Program,
        args: List[Word],
        env: Env,
        _executed: int = 0,
        _tail_calls: int = 0,
        _entry_charged: bool = False,
    ) -> int:
        """Execute ``program`` with entry arguments in R1..R5; returns R0.

        Each program, the entry one and every tail-call target, runs on a
        fresh zeroed 512-byte stack :class:`Region`, as in the kernel: a
        tail-called program cannot read its caller's stack. The Region's
        spill bookkeeping serves this interpreter and, in compiled code,
        only the Region-resident slots (the bytes a helper can reach or
        that are accessed piecewise); the JIT holds every other slot in a
        Python local.

        The underscore-prefixed keywords are the JIT engine's resume
        protocol: when a compiled tail-call chain reaches a program the
        JIT could not compile, the interpreter picks up mid-chain with the
        accumulated instruction and tail-call counters (entry cost already
        charged).
        """
        if len(args) > 5:
            raise VMError("at most 5 entry arguments")
        kernel = self.kernel
        costs = kernel.costs
        entry_args = list(args)

        if not _entry_charged:
            kernel.charge_ns(costs.ebpf_prog_entry)

        regs = _entry_regs(entry_args)

        insns = program.insns
        maps = program.maps
        pc = 0
        executed = _executed
        tail_calls = _tail_calls
        insn_cost = costs.ebpf_insn
        budget = self.insn_limit

        # Instruction costs accrue and flush as one ``charge_ns(k *
        # insn_cost)`` before every helper call, because helpers read the
        # clock, and at exit and abort (the ``finally`` catches every abort
        # path). A tail call carries the pending count along.
        charged = executed

        try:
            while True:
                if pc < 0 or pc >= len(insns):
                    raise VMError(f"{program.name}: pc {pc} out of range")
                executed += 1
                if executed > budget:
                    raise VMError(f"{program.name}: instruction budget exceeded")
                insn = insns[pc]
                op = insn.op

                if op is Op.MOV_IMM:
                    regs[insn.dst] = insn.imm & MASK64
                elif op is Op.MOV_REG:
                    regs[insn.dst] = self._read(regs, insn.src, insn, program)
                elif op is Op.LD_MAP:
                    if insn.imm >= len(maps):
                        raise VMError(f"{program.name}: LD_MAP index {insn.imm} out of range")
                    regs[insn.dst] = maps[insn.imm]
                elif op in ALU_IMM_OPS:
                    regs[insn.dst] = self._alu(
                        op.value[:-4], self._read(regs, insn.dst, insn, program), insn.imm & MASK64, insn, program
                    )
                elif op in ALU_REG_OPS:
                    regs[insn.dst] = self._alu(
                        op.value[:-4],
                        self._read(regs, insn.dst, insn, program),
                        self._read(regs, insn.src, insn, program),
                        insn,
                        program,
                    )
                elif op is Op.NEG:
                    value = self._read(regs, insn.dst, insn, program)
                    if isinstance(value, Pointer):
                        raise VMError(f"{program.name}@{pc}: NEG on pointer")
                    regs[insn.dst] = (-value) & MASK64
                elif op is Op.LDX:
                    ptr = self._read(regs, insn.src, insn, program)
                    if not isinstance(ptr, Pointer):
                        raise VMError(f"{program.name}@{pc}: load via non-pointer r{insn.src}")
                    if insn.imm not in MEM_SIZES:  # unverified bytecode
                        raise VMError(f"{program.name}@{pc}: bad access size {insn.imm}")
                    try:
                        regs[insn.dst] = ptr.load(insn.off, insn.imm)
                    except MemoryError_ as exc:
                        raise VMError(f"{program.name}@{pc}: {exc}") from exc
                elif op is Op.STX:
                    ptr = self._read(regs, insn.dst, insn, program)
                    value = self._read(regs, insn.src, insn, program)
                    if not isinstance(ptr, Pointer):
                        raise VMError(f"{program.name}@{pc}: store via non-pointer r{insn.dst}")
                    if insn.imm not in MEM_SIZES:
                        raise VMError(f"{program.name}@{pc}: bad access size {insn.imm}")
                    try:
                        ptr.store(insn.off, insn.imm, value)
                    except MemoryError_ as exc:
                        raise VMError(f"{program.name}@{pc}: {exc}") from exc
                elif op is Op.ST_IMM:
                    ptr = self._read(regs, insn.dst, insn, program)
                    if not isinstance(ptr, Pointer):
                        raise VMError(f"{program.name}@{pc}: store via non-pointer r{insn.dst}")
                    if insn.src not in MEM_SIZES:
                        raise VMError(f"{program.name}@{pc}: bad access size {insn.src}")
                    try:
                        ptr.store(insn.off, insn.src, insn.imm)
                    except MemoryError_ as exc:
                        raise VMError(f"{program.name}@{pc}: {exc}") from exc
                elif op is Op.JA:
                    pc += insn.off
                elif op in JMP_IMM_OPS:
                    left = self._read(regs, insn.dst, insn, program)
                    if self._compare(op, left, insn.imm & MASK64, insn, program):
                        pc += insn.off
                elif op in JMP_REG_OPS:
                    left = self._read(regs, insn.dst, insn, program)
                    right = self._read(regs, insn.src, insn, program)
                    if self._compare(op, left, right, insn, program):
                        pc += insn.off
                elif op is Op.CALL:
                    entry = helpers_mod.HELPERS.get(insn.imm)
                    if entry is None:
                        raise VMError(f"{program.name}@{pc}: unknown helper {insn.imm}")
                    __, fn = entry
                    call_args = [regs[R1 + i] for i in range(5)]
                    if executed > charged:
                        # flush before the helper runs: helpers read the clock
                        kernel.charge_ns((executed - charged) * insn_cost)
                        charged = executed
                    try:
                        regs[R0] = fn(env, call_args)
                    except (helpers_mod.HelperError, MemoryError_) as exc:
                        raise VMError(f"{program.name}@{pc}: {exc}") from exc
                    # helper calls clobber the caller-saved argument registers
                    for i in range(1, 6):
                        regs[i] = None
                elif op is Op.TAIL_CALL:
                    prog_array = regs[2]
                    index = self._read(regs, 3, insn, program)
                    if not isinstance(prog_array, ProgArray):
                        raise VMError(f"{program.name}@{pc}: tail call needs a prog array in r2")
                    if isinstance(index, Pointer):
                        raise VMError(f"{program.name}@{pc}: tail call index is a pointer")
                    target = prog_array.get_prog(index)
                    if target is None:
                        pc += 1  # empty slot: fall through, as in real eBPF
                        continue
                    tail_calls += 1
                    if tail_calls > TAIL_CALL_LIMIT:
                        raise VMError(f"{program.name}@{pc}: tail call limit exceeded")
                    kernel.charge_ns(costs.ebpf_tail_call)
                    target_prog = target.program if hasattr(target, "program") else target
                    program = target_prog
                    insns = program.insns
                    maps = program.maps
                    regs = _entry_regs(entry_args)
                    pc = 0
                    continue
                elif op is Op.EXIT:
                    if executed > charged:
                        kernel.charge_ns((executed - charged) * insn_cost)
                        charged = executed
                    result = regs[R0]
                    if result is None:
                        raise VMError(f"{program.name}@{pc}: exit with uninitialized r0")
                    if isinstance(result, Pointer):
                        raise VMError(f"{program.name}@{pc}: exit with pointer in r0")
                    self.insns_executed = executed
                    return result
                else:  # pragma: no cover - exhaustive
                    raise VMError(f"{program.name}@{pc}: unimplemented op {op}")
                pc += 1
        finally:
            # abort paths land here with accrued, unflushed instructions
            if executed > charged:
                kernel.charge_ns((executed - charged) * insn_cost)

    # ------------------------------------------------------------- internals

    def _read(self, regs: List[Optional[Word]], reg: int, insn: Insn, program: Program) -> Word:
        value = regs[reg]
        if value is None:
            raise VMError(f"{program.name}: read of uninitialized r{reg} ({insn!r})")
        return value

    def _alu(self, op_name: str, left: Word, right: Word, insn: Insn, program: Program) -> Word:
        if isinstance(left, Pointer):
            if isinstance(right, Pointer):
                raise VMError(f"{program.name}: pointer-pointer arithmetic ({insn!r})")
            if op_name == "add":
                return left.advanced(_signed64(right))
            if op_name == "sub":
                return left.advanced(-_signed64(right))
            raise VMError(f"{program.name}: {op_name} on pointer ({insn!r})")
        if isinstance(right, Pointer):
            if op_name == "add":
                return right.advanced(_signed64(left))
            raise VMError(f"{program.name}: scalar {op_name} pointer ({insn!r})")
        left &= MASK64
        right &= MASK64
        if op_name == "add":
            return (left + right) & MASK64
        if op_name == "sub":
            return (left - right) & MASK64
        if op_name == "mul":
            return (left * right) & MASK64
        if op_name == "div":
            return (left // right) & MASK64 if right else 0
        if op_name == "mod":
            return (left % right) & MASK64 if right else left
        if op_name == "and":
            return left & right
        if op_name == "or":
            return left | right
        if op_name == "xor":
            return left ^ right
        if op_name == "lsh":
            return (left << (right & 63)) & MASK64
        if op_name == "rsh":
            return left >> (right & 63)
        raise VMError(f"{program.name}: unknown ALU op {op_name}")  # pragma: no cover

    def _compare(self, op: Op, left: Word, right: Word, insn: Insn, program: Program) -> bool:
        if isinstance(left, Pointer) or isinstance(right, Pointer):
            # only null-checks are meaningful on pointers
            if op in (Op.JEQ_IMM, Op.JNE_IMM) and isinstance(right, int) and right == 0:
                is_null = False  # live pointers are never null
                return is_null if op is Op.JEQ_IMM else not is_null
            raise VMError(f"{program.name}: pointer comparison ({insn!r})")
        if op in (Op.JEQ_IMM, Op.JEQ_REG):
            return left == right
        if op in (Op.JNE_IMM, Op.JNE_REG):
            return left != right
        if op in (Op.JGT_IMM, Op.JGT_REG):
            return left > right
        if op in (Op.JGE_IMM, Op.JGE_REG):
            return left >= right
        if op in (Op.JLT_IMM, Op.JLT_REG):
            return left < right
        if op in (Op.JLE_IMM, Op.JLE_REG):
            return left <= right
        if op is Op.JSET_IMM:
            return bool(left & right)
        raise VMError(f"{program.name}: unknown jump {op}")  # pragma: no cover
