"""Path-sensitive abstract interpretation over the eBPF-like ISA.

The interpreter walks every feasible path of the (loop-free) program with an
abstract machine state: each live register and tracked stack slot holds a
*value id*, and a shared table maps value ids to :class:`AbstractVal`s. The
indirection is what makes branch refinement work the way the kernel
verifier's does — when ``if (len < 34)`` refines the packet-length range,
every register and spilled slot holding that same value sees the refined
range, because they alias one value id.

What is proven statically (the VM's fat pointers then only re-assert it):

- every packet load/store lies below the *guaranteed minimum* packet length
  established by dominating length checks (``PACKET_LEN`` comparisons);
- stack accesses stay inside the 512-byte frame, and spilled pointers are
  only filled back full-width from the exact slot they went into;
- helper calls match the declared signatures in ``HELPER_SIGS`` (argument
  kinds, pointed-to buffer sizes checked against the packet, the frame, or
  the map's ``key_size``/``value_size``, map-type constraints);
- no pointer leaks into scalar arithmetic, comparisons (beyond null
  checks), stores to non-stack memory, or the R0 exit value.

The walk also records per-instruction coverage and per-branch feasible
outcomes, which :mod:`repro.ebpf.analysis.lint` turns into dead-code and
redundant-check findings, and the operand, call, helper-buffer and
constant facts the JIT's translator (:mod:`repro.ebpf.jit.compiler`)
selects its typed forms, its stack storage and its folded values by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NoReturn, Optional, Set, Tuple

from repro.ebpf import helpers as helpers_mod
from repro.ebpf.analysis.domain import (
    CONST_PTR_TO_MAP,
    PACKET_LEN,
    POINTER_KINDS,
    PTR_TO_PACKET,
    PTR_TO_STACK,
    SCALAR,
    SCALAR_KINDS,
    U64MAX,
    AbstractVal,
    Range,
    alu_range,
    refine,
)
from repro.ebpf.analysis.errors import VerifierError
from repro.ebpf.isa import ALU_IMM_OPS, ALU_REG_OPS, JMP_IMM_OPS, JMP_REG_OPS, NUM_REGS, Insn, Op, R10
from repro.ebpf.program import Program
from repro.ebpf.vm import STACK_SIZE

#: Upper bound on explored (pc, state) transfer steps before the program is
#: rejected as too complex — the analogue of the kernel's 1M-insn verifier
#: budget. Synthesized FPMs explore a few thousand steps; only adversarial
#: branch ladders get near this.
STEP_BUDGET = 200_000

#: Entry-ABI kinds accepted by :func:`interpret`.
ENTRY_PACKET = "packet"
ENTRY_PACKET_LEN = "packet_len"
ENTRY_SCALAR = "scalar"


def default_entry_kinds(count: int) -> Tuple[str, ...]:
    """The hook ABI: r1 = packet pointer, r2 = packet length, rest scalars."""
    kinds = (ENTRY_PACKET, ENTRY_PACKET_LEN)[:count]
    return kinds + (ENTRY_SCALAR,) * (count - len(kinds))


#: An operand kind the walk records for the JIT: ``(kind, offset)``, where
#: ``kind`` is :data:`SCALAR` (packet lengths included), ``PTR_TO_PACKET``,
#: ``PTR_TO_STACK``, ``CONST_PTR_TO_MAP`` or :data:`MIXED`, and ``offset``
#: is a stack pointer's absolute frame offset when it is the same constant
#: on every path (None otherwise, and for every other kind).
Operand = Tuple[str, Optional[int]]

#: Paths disagree on the operand's kind.
MIXED = "mixed"

SCALAR_OPERAND: Operand = (SCALAR, None)
MIXED_OPERAND: Operand = (MIXED, None)
_OPERANDS: Dict[str, Operand] = {
    SCALAR: SCALAR_OPERAND,
    PACKET_LEN: SCALAR_OPERAND,
    PTR_TO_PACKET: (PTR_TO_PACKET, None),
    CONST_PTR_TO_MAP: (CONST_PTR_TO_MAP, None),
}


def _operand(value: AbstractVal) -> Operand:
    operand = _OPERANDS.get(value.kind)
    if operand is not None:
        return operand
    rng = value.rng  # a stack pointer
    return (PTR_TO_STACK, rng.lo if rng.lo == rng.hi else None)


#: Kinds the constant fact records: a scalar's value, a packet or stack
#: pointer's offset. A packet length's range lives in the path state, so
#: its copies have none.
_CONST_KINDS = frozenset({SCALAR, PTR_TO_PACKET, PTR_TO_STACK})


def _const(value: AbstractVal) -> Optional[int]:
    """The one integer compiled code holds for ``value`` when it is
    constant, else None."""
    rng = value.rng
    return rng.lo if rng.lo == rng.hi and value.kind in _CONST_KINDS else None


def _block_starts(insns) -> Set[int]:
    """The entry, every jump target and every instruction after a
    conditional jump: where the constant fact is recorded."""
    starts = {0}
    for pc, insn in enumerate(insns):
        op = insn.op
        if op is Op.JA or op in JMP_IMM_OPS or op in JMP_REG_OPS:
            starts.add(pc + insn.off + 1)
            if op is not Op.JA:
                starts.add(pc + 1)
    return starts


def _join(a: Optional[Operand], b: Optional[Operand]) -> Optional[Operand]:
    """Two paths' kinds of one operand (None: uninitialised): stack pointers
    that disagree on the offset lose it, any other disagreement is
    :data:`MIXED`."""
    if a == b:
        return a
    if a is not None and b is not None and a[0] == b[0] == PTR_TO_STACK:
        return (PTR_TO_STACK, None)
    return MIXED_OPERAND


@dataclass
class Analysis:
    """What proving the program safe established.

    Coverage facts for lint, plus per-instruction facts for the JIT, each
    joined over every path that reaches the instruction. Every register an
    instruction reads is initialised on every such path (the walk rejects
    the program otherwise), so only ``call_args``, which covers the helper
    argument registers a call may not read, has an uninitialised case. The
    analysis holds no reference to the program it describes.
    """

    #: Instruction indices reached on at least one feasible path.
    visited: Set[int] = field(default_factory=set)
    #: For each conditional jump: the set of feasible outcomes (True=taken).
    branch_outcomes: Dict[int, Set[bool]] = field(default_factory=dict)
    #: ``program.maps`` slots referenced by a reachable LD_MAP.
    used_maps: Set[int] = field(default_factory=set)
    #: Total transfer steps (explored program points, all paths).
    steps: int = 0
    #: For each reached ALU op (NEG aside), load, store and conditional
    #: jump: the :data:`Operand` kinds of its ``dst`` and ``src`` registers,
    #: None for a register the instruction does not read.
    operands: Dict[int, Tuple[Optional[Operand], Optional[Operand]]] = field(default_factory=dict)
    #: For each reached 8-byte stack load at a constant offset: the kind of
    #: the value it fills. A pointer kind means the slot holds a spilled
    #: pointer on every path, :data:`SCALAR` on none, :data:`MIXED` on some.
    fills: Dict[int, Operand] = field(default_factory=dict)
    #: Reached scalar stack stores at a constant offset that overlap a slot
    #: holding a spilled pointer on some path.
    spill_clobbers: Set[int] = field(default_factory=set)
    #: For each reached helper call: the :data:`Operand` kinds of r1..r5,
    #: None for a register uninitialised on every path (one uninitialised
    #: on only some paths joins to :data:`MIXED`).
    call_args: Dict[int, Tuple[Optional[Operand], ...]] = field(default_factory=dict)
    #: For each reached helper call: the frame byte ranges ``[low, high_end)``
    #: its stack pointer arguments let it read or write, over every path.
    helper_stack: Dict[int, Set[Tuple[int, int]]] = field(default_factory=dict)
    #: For each reached instruction that starts a block (the entry, a jump
    #: target, the instruction after a conditional jump): the values that
    #: are one constant on every path reaching it, as ``(registers,
    #: slots)``: ``registers[n]`` is r``n``'s value or None, and ``slots``
    #: maps each tracked 8-byte stack slot (absolute frame offset) to its
    #: value. A scalar's value is the constant itself (the range domain's
    #: ``[c, c]``); a packet or stack pointer's is its constant offset,
    #: which is the integer compiled code holds for it. Copies of the
    #: packet length, whose range the walk keeps per path, are left out.
    #: None once the JIT has compiled the program: it is the one reader.
    consts: Optional[Dict[int, Tuple[Tuple[Optional[int], ...], Dict[int, int]]]] = field(default_factory=dict)
    #: For each reached ALU op, load and helper call: the value it writes
    #: (to ``dst``, or r0 for a call), as above, when that is one constant
    #: on every path through it, else None. Released with ``consts``.
    results: Optional[Dict[int, Optional[int]]] = field(default_factory=dict)


class _State:
    """One path's machine state: reg/slot → value id → abstract value.

    ``pkt_len`` is the path's packet-length interval; every ``PACKET_LEN``
    value aliases it, so refining any copy of the length refines them all.
    Stack slots are keyed by absolute frame offset (R10 sits at
    ``STACK_SIZE``) and each tracked slot covers exactly 8 bytes.
    """

    __slots__ = ("regs", "slots", "vals", "pkt_len")

    def __init__(
        self,
        regs: List[Optional[int]],
        slots: Dict[int, int],
        vals: Dict[int, AbstractVal],
        pkt_len: Range,
    ) -> None:
        self.regs = regs
        self.slots = slots
        self.vals = vals
        self.pkt_len = pkt_len

    def copy(self) -> "_State":
        return _State(list(self.regs), dict(self.slots), dict(self.vals), self.pkt_len)

    def val(self, vid: int) -> AbstractVal:
        value = self.vals[vid]
        if value.kind == PACKET_LEN:
            return AbstractVal(PACKET_LEN, self.pkt_len)
        return value

    def set_rng(self, vid: int, rng: Range) -> None:
        value = self.vals[vid]
        if value.kind == PACKET_LEN:
            self.pkt_len = rng
        else:
            self.vals[vid] = AbstractVal(value.kind, rng, value.map)


def interpret(
    program: Program,
    entry_regs: Tuple[int, ...] = (1, 2, 3),
    entry_kinds: Optional[Tuple[str, ...]] = None,
) -> Analysis:
    """Prove ``program`` memory-safe under the given entry ABI.

    Raises :class:`VerifierError` (with structured fields) on the first
    path that cannot be proven safe; returns the coverage
    :class:`Analysis` otherwise. Assumes structural checks (jump targets,
    access sizes, helper ids, map indices) already passed.
    """
    if entry_kinds is None:
        entry_kinds = default_entry_kinds(len(entry_regs))
    if len(entry_kinds) != len(entry_regs):
        raise ValueError("entry_kinds must match entry_regs in length")
    return _Interp(program).run(entry_regs, entry_kinds)


class _Interp:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.insns = program.insns
        self.name = program.name
        self.analysis = Analysis()
        self._next_vid = 0

    # ------------------------------------------------------------ plumbing

    def fail(self, pc: int, insn: Insn, code: str, message: str) -> NoReturn:
        raise VerifierError(
            f"{self.name}@{pc}: {message}",
            program=self.name,
            pc=pc,
            code=code,
            insn=repr(insn),
        )

    def new_vid(self, st: _State, value: AbstractVal) -> int:
        vid = self._next_vid
        self._next_vid += 1
        st.vals[vid] = value
        return vid

    def read(self, st: _State, pc: int, insn: Insn, reg: int) -> int:
        vid = st.regs[reg]
        if vid is None:
            self.fail(pc, insn, "uninitialized-register", f"r{reg} may be used uninitialized ({insn!r})")
        return vid

    def note(self, pc: int, dst: Optional[AbstractVal], src: Optional[AbstractVal]) -> None:
        """Join this path's kinds of the registers ``pc`` reads into its facts."""
        new = (None if dst is None else _operand(dst), None if src is None else _operand(src))
        operands = self.analysis.operands
        old = operands.get(pc)
        if old is None:
            operands[pc] = new
        elif old != new:
            operands[pc] = (_join(old[0], new[0]), _join(old[1], new[1]))

    # ------------------------------------------------------------- driving

    def run(self, entry_regs: Tuple[int, ...], entry_kinds: Tuple[str, ...]) -> Analysis:
        st = _State([None] * NUM_REGS, {}, {}, Range.unknown())
        for position, reg in enumerate(entry_regs):
            kind = entry_kinds[position]
            if kind == ENTRY_PACKET:
                value = AbstractVal(PTR_TO_PACKET, Range.const(0))
            elif kind == ENTRY_PACKET_LEN:
                value = AbstractVal(PACKET_LEN, Range.unknown())
            elif kind == ENTRY_SCALAR:
                value = AbstractVal(SCALAR, Range.unknown())
            else:
                raise ValueError(f"unknown entry kind {kind!r}")
            st.regs[reg] = self.new_vid(st, value)
        st.regs[R10] = self.new_vid(st, AbstractVal(PTR_TO_STACK, Range.const(STACK_SIZE)))

        starts = _block_starts(self.insns)
        work: List[Tuple[int, _State]] = [(0, st)]
        while work:
            pc, st = work.pop()
            while True:
                self.analysis.steps += 1
                if self.analysis.steps > STEP_BUDGET:
                    raise VerifierError(
                        f"{self.name}: program too complex to verify "
                        f"(more than {STEP_BUDGET} explored states)",
                        program=self.name,
                        code="too-complex",
                    )
                self.analysis.visited.add(pc)
                if pc in starts:
                    self._note_consts(pc, st)
                insn = self.insns[pc]
                if insn.op is Op.EXIT:
                    self._check_exit(pc, insn, st)
                    break
                pc = self._step(pc, insn, st, work)
        return self.analysis

    def _note_consts(self, pc: int, st: _State) -> None:
        """Join this path's constants at ``pc`` into the fact."""
        vals = st.vals
        regs = tuple([None if vid is None else _const(vals[vid]) for vid in st.regs])
        slots = {}
        for offset, vid in st.slots.items():
            value = _const(vals[vid])
            if value is not None:
                slots[offset] = value
        old = self.analysis.consts.get(pc)
        if old is not None:
            regs = tuple([value if value == new else None for value, new in zip(old[0], regs)])
            slots = {offset: value for offset, value in old[1].items() if slots.get(offset) == value}
        self.analysis.consts[pc] = (regs, slots)

    def _note_result(self, pc: int, value: AbstractVal) -> None:
        """Join the value ``pc`` writes on this path into the fact."""
        const = _const(value)
        results = self.analysis.results
        results[pc] = const if results.get(pc, const) == const else None

    # ------------------------------------------------------ transfer rules

    def _step(self, pc: int, insn: Insn, st: _State, work: List[Tuple[int, _State]]) -> int:
        op = insn.op

        if op is Op.MOV_IMM:
            st.regs[insn.dst] = self.new_vid(st, AbstractVal(SCALAR, Range.const(insn.imm & U64MAX)))
            return pc + 1
        if op is Op.MOV_REG:
            st.regs[insn.dst] = self.read(st, pc, insn, insn.src)
            return pc + 1
        if op is Op.LD_MAP:
            self.analysis.used_maps.add(insn.imm)
            bpf_map = self.program.maps[insn.imm]
            st.regs[insn.dst] = self.new_vid(st, AbstractVal(CONST_PTR_TO_MAP, Range.const(0), bpf_map))
            return pc + 1
        if op in ALU_IMM_OPS or op in ALU_REG_OPS or op is Op.NEG:
            if op is Op.NEG:
                op_name = "neg"
                right = AbstractVal(SCALAR, Range.const(0))
            elif op in ALU_REG_OPS:
                op_name = op.value[:-4]
                right = st.val(self.read(st, pc, insn, insn.src))
            else:
                op_name = op.value[:-4]
                right = AbstractVal(SCALAR, Range.const(insn.imm & U64MAX))
            left = st.val(self.read(st, pc, insn, insn.dst))
            if op is not Op.NEG:
                self.note(pc, left, right if op in ALU_REG_OPS else None)
            result = self._alu(pc, insn, op_name, left, right)
            st.regs[insn.dst] = self.new_vid(st, result)
            self._note_result(pc, result)
            return pc + 1
        if op is Op.LDX:
            pointer = st.val(self.read(st, pc, insn, insn.src))
            self.note(pc, None, pointer)
            vid = st.regs[insn.dst] = self._load(pc, insn, st, pointer, insn.imm)
            self._note_result(pc, st.vals[vid])
            return pc + 1
        if op is Op.STX:
            pointer = st.val(self.read(st, pc, insn, insn.dst))
            svid = self.read(st, pc, insn, insn.src)
            value = st.val(svid)
            self.note(pc, pointer, value)
            self._store(pc, insn, st, pointer, svid, value, insn.imm)
            return pc + 1
        if op is Op.ST_IMM:
            pointer = st.val(self.read(st, pc, insn, insn.dst))
            self.note(pc, pointer, None)
            value = AbstractVal(SCALAR, Range.const(insn.imm & U64MAX))
            self._store(pc, insn, st, pointer, self.new_vid(st, value), value, insn.src)
            return pc + 1
        if op is Op.JA:
            return pc + 1 + insn.off
        if op in JMP_IMM_OPS or op in JMP_REG_OPS:
            return self._branch(pc, insn, st, work)
        if op is Op.CALL:
            return self._call(pc, insn, st)
        if op is Op.TAIL_CALL:
            return self._tail_call(pc, insn, st)
        self.fail(pc, insn, "bad-access", f"unimplemented op {op}")  # pragma: no cover

    def _alu(self, pc: int, insn: Insn, op_name: str, left: AbstractVal, right: AbstractVal) -> AbstractVal:
        if CONST_PTR_TO_MAP in (left.kind, right.kind):
            self.fail(pc, insn, "map-reference-misuse", f"arithmetic on a map reference ({insn!r})")
        left_ptr = left.kind in POINTER_KINDS
        right_ptr = right.kind in POINTER_KINDS
        if left_ptr and right_ptr:
            self.fail(pc, insn, "pointer-leak", f"pointer-pointer arithmetic ({insn!r})")
        if left_ptr or right_ptr:
            if left_ptr and op_name not in ("add", "sub"):
                self.fail(pc, insn, "pointer-leak", f"{op_name} on pointer ({insn!r})")
            if right_ptr and op_name != "add":
                self.fail(pc, insn, "pointer-leak", f"scalar {op_name} pointer ({insn!r})")
            pointer, scalar = (left, right) if left_ptr else (right, left)
            delta = scalar.rng.signed()
            if delta is None:
                # the signed delta straddles: offset becomes unusable (any
                # later access through it is unprovable, hence rejected)
                offset = Range(-(1 << 64), 1 << 64)
            else:
                delta_lo, delta_hi = delta
                if op_name == "sub":
                    delta_lo, delta_hi = -delta_hi, -delta_lo
                offset = Range(pointer.rng.lo + delta_lo, pointer.rng.hi + delta_hi)
            return AbstractVal(pointer.kind, offset, pointer.map)
        return AbstractVal(SCALAR, alu_range(op_name, left.rng, right.rng))

    # -------------------------------------------------------------- memory

    def _check_packet(self, pc: int, insn: Insn, st: _State, offset: Range, size: int) -> None:
        low, high_end = offset.lo, offset.hi + size
        if low < 0 or high_end > st.pkt_len.lo:
            self.fail(
                pc, insn, "packet-out-of-bounds",
                f"packet access [{low}, {high_end}) not proven within packet bounds "
                f"(guaranteed length {st.pkt_len.lo}); add a packet length guard",
            )

    def _check_stack(self, pc: int, insn: Insn, offset: Range, size: int) -> None:
        if offset.lo < 0 or offset.hi + size > STACK_SIZE:
            self.fail(
                pc, insn, "stack-out-of-bounds",
                f"stack access [{offset.lo - STACK_SIZE}, {offset.hi + size - STACK_SIZE}) "
                f"outside the {STACK_SIZE}-byte frame",
            )

    def _ptr_slot_in(self, st: _State, low: int, high_end: int) -> bool:
        """Is any spilled-pointer slot overlapped by byte range [low, high_end)?"""
        for slot, vid in st.slots.items():
            if slot < high_end and slot + 8 > low and st.vals[vid].kind in POINTER_KINDS:
                return True
        return False

    def _clobber_slots(self, st: _State, low: int, high_end: int) -> bool:
        """Forget every slot byte range [low, high_end) overlaps; returns
        whether one of them held a spilled pointer."""
        held_pointer = False
        for slot in [s for s in st.slots if s < high_end and s + 8 > low]:
            if st.vals[st.slots.pop(slot)].kind in POINTER_KINDS:
                held_pointer = True
        return held_pointer

    def _load(self, pc: int, insn: Insn, st: _State, pointer: AbstractVal, size: int) -> int:
        kind = pointer.kind
        if kind in SCALAR_KINDS:
            self.fail(pc, insn, "bad-access", f"load via non-pointer r{insn.src} ({insn!r})")
        if kind == CONST_PTR_TO_MAP:
            self.fail(pc, insn, "map-reference-misuse", f"load via map reference r{insn.src} ({insn!r})")
        offset = Range(pointer.rng.lo + insn.off, pointer.rng.hi + insn.off)
        if kind == PTR_TO_PACKET:
            self._check_packet(pc, insn, st, offset, size)
            return self.new_vid(st, AbstractVal(SCALAR, Range.sized(size)))
        self._check_stack(pc, insn, offset, size)
        if offset.is_const:
            if size == 8:
                vid = st.slots.get(offset.lo)
                filled = SCALAR_OPERAND if vid is None else _operand(st.vals[vid])
                fills = self.analysis.fills
                fills[pc] = _join(fills.get(pc, filled), filled)
                if vid is not None:
                    return vid  # exact fill: the spilled value, shared vid
            # partial or untracked read: the VM returns plain bytes (a
            # pointer's backing store reads as zeros), so a scalar is exact
            return self.new_vid(st, AbstractVal(SCALAR, Range.sized(size)))
        if size == 8 and self._ptr_slot_in(st, offset.lo, offset.hi + size):
            self.fail(
                pc, insn, "pointer-spill",
                "variable-offset stack load may alias a spilled pointer",
            )
        return self.new_vid(st, AbstractVal(SCALAR, Range.sized(size)))

    def _store(
        self, pc: int, insn: Insn, st: _State, pointer: AbstractVal, svid: int, value: AbstractVal, size: int
    ) -> None:
        kind = pointer.kind
        if kind in SCALAR_KINDS:
            self.fail(pc, insn, "bad-access", f"store via non-pointer r{insn.dst} ({insn!r})")
        if kind == CONST_PTR_TO_MAP:
            self.fail(pc, insn, "map-reference-misuse", f"store via map reference r{insn.dst} ({insn!r})")
        if value.kind == CONST_PTR_TO_MAP:
            self.fail(pc, insn, "map-reference-misuse", f"storing a map reference to memory ({insn!r})")
        value_is_ptr = value.kind in POINTER_KINDS
        offset = Range(pointer.rng.lo + insn.off, pointer.rng.hi + insn.off)
        if kind == PTR_TO_PACKET:
            if value_is_ptr:
                self.fail(pc, insn, "pointer-spill", "cannot spill a pointer to packet memory")
            self._check_packet(pc, insn, st, offset, size)
            return
        self._check_stack(pc, insn, offset, size)
        if value_is_ptr:
            if size != 8:
                self.fail(pc, insn, "pointer-spill", f"pointer spill must be 8 bytes, got {size}")
            if not offset.is_const:
                self.fail(pc, insn, "pointer-spill", "pointer spill requires a constant stack offset")
            self._clobber_slots(st, offset.lo, offset.lo + 8)
            st.slots[offset.lo] = svid
            return
        if offset.is_const:
            if self._clobber_slots(st, offset.lo, offset.lo + size):
                self.analysis.spill_clobbers.add(pc)
            if size == 8:
                st.slots[offset.lo] = svid
            return
        if self._ptr_slot_in(st, offset.lo, offset.hi + size):
            self.fail(
                pc, insn, "pointer-spill",
                "variable-offset stack store may clobber a spilled pointer",
            )
        self._clobber_slots(st, offset.lo, offset.hi + size)

    # ------------------------------------------------------------ branches

    def _branch(self, pc: int, insn: Insn, st: _State, work: List[Tuple[int, _State]]) -> int:
        op = insn.op
        target = pc + 1 + insn.off
        outcomes = self.analysis.branch_outcomes.setdefault(pc, set())
        lvid = self.read(st, pc, insn, insn.dst)
        left = st.val(lvid)
        if op in JMP_REG_OPS:
            rvid: Optional[int] = self.read(st, pc, insn, insn.src)
            right = st.val(rvid)
            self.note(pc, left, right)
        else:
            rvid = None
            right = AbstractVal(SCALAR, Range.const(insn.imm & U64MAX))
            self.note(pc, left, None)
        if CONST_PTR_TO_MAP in (left.kind, right.kind):
            self.fail(pc, insn, "map-reference-misuse", f"comparison on a map reference ({insn!r})")
        if left.kind in POINTER_KINDS or right.kind in POINTER_KINDS:
            if op in (Op.JEQ_IMM, Op.JNE_IMM) and insn.imm == 0:
                # A null check. Live pointers are never null at runtime, but
                # both edges are explored so joins stay sound.
                outcomes.update((True, False))
                work.append((target, st.copy()))
                return pc + 1
            self.fail(pc, insn, "pointer-comparison", f"pointer comparison ({insn!r})")

        op_name = op.value[:-4]
        edges = []
        for taken in (False, True):
            feasible, new_left, new_right = refine(op_name, taken, left.rng, right.rng)
            if feasible:
                outcomes.add(taken)
                edges.append((taken, new_left, new_right))

        def apply(state: _State, edge) -> None:
            __, new_left, new_right = edge
            state.set_rng(lvid, new_left)
            if rvid is not None and rvid != lvid:
                state.set_rng(rvid, new_right)

        if len(edges) == 2:
            taken_st = st.copy()
            apply(taken_st, edges[1])
            work.append((target, taken_st))
            apply(st, edges[0])
            return pc + 1
        edge = edges[0]
        apply(st, edge)
        return target if edge[0] else pc + 1

    # --------------------------------------------------------------- calls

    def _call(self, pc: int, insn: Insn, st: _State) -> int:
        entry = helpers_mod.HELPERS.get(insn.imm)
        if entry is None:
            self.fail(pc, insn, "helper-unknown", f"unknown helper id {insn.imm}")
        kinds = tuple(
            None if st.regs[reg] is None else _operand(st.val(st.regs[reg])) for reg in range(1, 6)
        )
        old = self.analysis.call_args.get(pc, kinds)
        self.analysis.call_args[pc] = tuple(map(_join, old, kinds))
        result = self._check_call(pc, insn, st, entry[0], helpers_mod.HELPER_SIGS[insn.imm])
        for reg in range(1, 6):
            st.regs[reg] = None  # helper calls clobber the argument registers
        st.regs[0] = self.new_vid(st, result)
        self._note_result(pc, result)
        return pc + 1

    def _check_call(self, pc: int, insn: Insn, st: _State, helper_name: str, sig) -> AbstractVal:
        resolved_maps: Dict[int, object] = {}
        for index, spec in enumerate(sig.args):
            reg = 1 + index
            if spec.kind == "any":
                continue
            vid = st.regs[reg]
            if vid is None:
                self.fail(
                    pc, insn, "uninitialized-register",
                    f"r{reg} may be used uninitialized in call to helper {helper_name} ({insn!r})",
                )
            value = st.val(vid)
            if spec.kind == "scalar":
                if value.kind not in SCALAR_KINDS:
                    self.fail(
                        pc, insn, "helper-signature",
                        f"helper {helper_name} argument {index + 1} (r{reg}) must be a scalar, "
                        f"got {value.kind}",
                    )
            elif spec.kind == "map":
                self._check_map_arg(pc, insn, helper_name, index, reg, value, spec, resolved_maps)
            elif spec.kind == "ptr":
                self._check_mem_arg(pc, insn, st, helper_name, index, reg, value, spec, resolved_maps)
            else:  # pragma: no cover - signature table is static
                raise AssertionError(f"bad arg spec kind {spec.kind}")
        ret_lo, ret_hi = sig.ret
        return AbstractVal(SCALAR, Range(ret_lo, ret_hi))

    def _check_map_arg(self, pc, insn, helper_name, index, reg, value, spec, resolved_maps) -> None:
        if value.kind != CONST_PTR_TO_MAP:
            self.fail(
                pc, insn, "helper-signature",
                f"helper {helper_name} argument {index + 1} (r{reg}) must be a map reference, "
                f"got {value.kind}",
            )
        bpf_map = value.map
        if spec.map_types and bpf_map.map_type not in spec.map_types:
            self.fail(
                pc, insn, "helper-signature",
                f"helper {helper_name} needs a {'/'.join(spec.map_types)} map, "
                f"got {bpf_map.map_type} ({bpf_map.name})",
            )
        if spec.byte_addressable and not getattr(bpf_map, "byte_addressable", True):
            self.fail(
                pc, insn, "helper-signature",
                f"helper {helper_name} cannot access {bpf_map.map_type} map {bpf_map.name}: "
                f"not byte-addressable",
            )
        resolved_maps[index] = bpf_map

    def _check_mem_arg(self, pc, insn, st, helper_name, index, reg, value, spec, resolved_maps) -> None:
        if value.kind not in POINTER_KINDS:
            self.fail(
                pc, insn, "helper-signature",
                f"helper {helper_name} argument {index + 1} (r{reg}) must be a pointer, "
                f"got {value.kind}",
            )
        if spec.size == "map_key" or spec.size == "map_value":
            bpf_map = resolved_maps.get(spec.map_from)
            if bpf_map is None:  # pragma: no cover - signature table is static
                raise AssertionError(f"{helper_name}: size {spec.size!r} needs a resolved map arg")
            size_hi = bpf_map.key_size if spec.size == "map_key" else bpf_map.value_size
        elif spec.size is not None:
            size_hi = spec.size
        else:
            size_reg = 1 + spec.size_from
            svid = st.regs[size_reg]
            if svid is None:
                self.fail(
                    pc, insn, "uninitialized-register",
                    f"r{size_reg} may be used uninitialized in call to helper {helper_name} ({insn!r})",
                )
            size_val = st.val(svid)
            if size_val.kind == PACKET_LEN:
                if value.kind == PTR_TO_PACKET and value.rng == Range.const(0):
                    return  # reads exactly [0, packet_len): in bounds by construction
                self.fail(
                    pc, insn, "helper-signature",
                    f"helper {helper_name} argument {index + 1} (r{reg}): a packet-length-sized "
                    f"buffer must point at packet offset 0",
                )
            elif size_val.kind == SCALAR:
                size_hi = size_val.rng.hi
            else:
                self.fail(
                    pc, insn, "helper-signature",
                    f"helper {helper_name} argument {1 + spec.size_from} (r{size_reg}) must be a "
                    f"scalar length, got {size_val.kind}",
                )
        low, high_end = value.rng.lo, value.rng.hi + size_hi
        if value.kind == PTR_TO_PACKET:
            limit, code, what = st.pkt_len.lo, "packet-out-of-bounds", "packet bounds"
        else:
            limit, code, what = STACK_SIZE, "stack-out-of-bounds", f"the {STACK_SIZE}-byte frame"
        if low < 0 or high_end > limit:
            self.fail(
                pc, insn, code,
                f"helper {helper_name} argument {index + 1} (r{reg}): access [{low}, {high_end}) "
                f"not proven within {what}",
            )
        if value.kind == PTR_TO_STACK:
            self.analysis.helper_stack.setdefault(pc, set()).add((low, high_end))
        if spec.writes and value.kind == PTR_TO_STACK:
            if self._ptr_slot_in(st, low, high_end):
                self.fail(
                    pc, insn, "pointer-spill",
                    f"helper {helper_name} may overwrite a spilled pointer on the stack",
                )
            self._clobber_slots(st, low, high_end)

    def _tail_call(self, pc: int, insn: Insn, st: _State) -> int:
        vid2 = st.regs[2]
        if vid2 is None:
            self.fail(
                pc, insn, "uninitialized-register",
                f"r2 may be used uninitialized by tail call ({insn!r})",
            )
        value2 = st.val(vid2)
        if value2.kind != CONST_PTR_TO_MAP or value2.map.map_type != "prog_array":
            self.fail(
                pc, insn, "tail-call",
                f"tail call needs a prog array reference in r2, got {value2.kind}",
            )
        value3 = st.val(self.read(st, pc, insn, 3))
        if value3.kind not in SCALAR_KINDS:
            self.fail(pc, insn, "tail-call", f"tail call index (r3) must be a scalar, got {value3.kind}")
        # an empty slot falls through with registers untouched; a taken tail
        # call never returns — so the fall-through state is the only successor
        return pc + 1

    def _check_exit(self, pc: int, insn: Insn, st: _State) -> None:
        vid0 = st.regs[0]
        if vid0 is None:
            self.fail(pc, insn, "exit-r0", "exit with possibly uninitialized r0")
        value = st.val(vid0)
        if value.kind not in SCALAR_KINDS:
            self.fail(pc, insn, "pointer-leak", f"exit with {value.kind} in r0")
