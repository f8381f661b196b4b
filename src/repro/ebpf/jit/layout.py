"""The shape of a verified program, as the JIT lays it out.

Everything the translator decides before it emits a line, read from the
verifier's facts: which operands have a typed form (a program with one
that has none is declined), which 8-byte stack slots live in Python
locals, the reached CFG with its infeasible branch edges dropped, which
registers and locals each instruction may still read (a computation whose
result nobody reads reads nothing), and the block layout: which join
points are laid out once at the top level, which are copied into their
predecessors, which still test the jump target ``_g`` and which edges set
it. See :mod:`repro.ebpf.jit.compiler` for how the emitter uses them.
"""

from __future__ import annotations

from typing import Dict, NoReturn, Optional, Set, Tuple

from repro.ebpf import helpers as helpers_mod
from repro.ebpf.analysis.domain import POINTER_KINDS, PTR_TO_PACKET, PTR_TO_STACK
from repro.ebpf.analysis.interp import MIXED_OPERAND, SCALAR_OPERAND, Analysis
from repro.ebpf.isa import ALU_IMM_OPS, ALU_REG_OPS, JMP_IMM_OPS, JMP_REG_OPS, Insn, Op
from repro.ebpf.program import Program

#: Indentation levels the layout may nest before a block starts a new join.
MAX_DEPTH = 32
#: Longest join block (instructions up to and including its exit) that is
#: copied into each predecessor instead of being laid out once.
COPY_MAX = 4

#: Each opcode's class, looked up once per instruction.
CLASS = {op: "alu" for op in ALU_REG_OPS}
CLASS.update({op: "alui" for op in ALU_IMM_OPS})
CLASS.update({op: "jmp" for op in JMP_REG_OPS})
CLASS.update({op: "jmpi" for op in JMP_IMM_OPS})
CLASS.update({
    Op.MOV_IMM: "mov_imm", Op.MOV_REG: "mov_reg", Op.LD_MAP: "ld_map", Op.NEG: "neg",
    Op.LDX: "ldx", Op.STX: "stx", Op.ST_IMM: "st", Op.JA: "ja", Op.CALL: "call",
    Op.TAIL_CALL: "tail", Op.EXIT: "exit",
})
#: Classes whose only effect is their ``dst`` register.
PURE = frozenset({"mov_imm", "mov_reg", "ld_map", "neg", "ldx", "alu", "alui"})
BRANCH = frozenset({"jmp", "jmpi"})


class JitError(Exception):
    """Compilation declined: the engine falls back to the interpreter."""


class Layout:
    """The typing checks, storage, CFG, liveness and block layout of one
    program, computed once from its verifier facts."""

    def __init__(self, program: Program, facts: Analysis) -> None:
        self.program = program
        self.insns = program.insns
        self.facts = facts
        self.cls = [CLASS.get(insn.op) for insn in self.insns]  # each opcode's class
        self.inline_mem_ops = 0  # packet/stack accesses emitted with no checks
        self.locals = self._stack_locals()  # frame offsets of the slots held in locals
        self.home = ["r%d" % reg for reg in range(11)]  # location → its Python variable
        self.slot_loc: Dict[int, int] = {}  # local's frame offset → location
        for off in sorted(self.locals, reverse=True):
            self.slot_loc[off] = len(self.home)
            self.home.append("s%d" % off)
        self._check()
        self._cfg()
        self._liveness()
        self._layout()

    def _untyped(self, pc: int, insn: Insn) -> NoReturn:
        """No typed form for these operands: decline the whole program."""
        kinds = self.facts.operands.get(pc, self.facts.call_args.get(pc))
        raise JitError(
            "%s@pc %d: no typed form for %r (operand kinds %s)" % (self.program.name, pc, insn, kinds)
        )

    def _stack_locals(self) -> Set[int]:
        """The 8-byte slots every reached access uses whole, at exactly
        their constant offset, and no helper buffer covers."""
        spans = set()
        for pc in self.facts.visited:
            insn = self.insns[pc]
            if insn.op is Op.LDX:
                (kind, base), size = self.facts.operands[pc][1], insn.imm
            elif insn.op is Op.STX or insn.op is Op.ST_IMM:
                (kind, base) = self.facts.operands[pc][0]
                size = insn.imm if insn.op is Op.STX else insn.src
            else:
                continue
            if kind == PTR_TO_STACK and base is not None:
                spans.add((base + insn.off, base + insn.off + size))
        helper = set().union(*self.facts.helper_stack.values())
        return {
            low for low, high in spans
            if high - low == 8
            and all(span == (low, high) or span[1] <= low or high <= span[0] for span in spans)
            and all(end <= low or high <= start for start, end in helper)
        }

    def _check(self) -> None:
        """Decline any reached operand with no typed form; count the
        memory accesses that compile with no checks."""
        facts = self.facts
        for pc in sorted(facts.visited):
            insn = self.insns[pc]
            cls = self.cls[pc]
            if cls == "alu" or cls == "alui":
                lk, rk = facts.operands[pc]
                if cls == "alui":
                    rk = SCALAR_OPERAND
                if not (rk == SCALAR_OPERAND and (lk == SCALAR_OPERAND or lk[0] in POINTER_KINDS)
                        or lk == SCALAR_OPERAND and rk[0] in POINTER_KINDS):
                    self._untyped(pc, insn)
            elif cls == "ldx":
                kind, base = facts.operands[pc][1]
                if kind != PTR_TO_PACKET:
                    if kind != PTR_TO_STACK or base is None:
                        self._untyped(pc, insn)
                    fill = facts.fills[pc] if insn.imm == 8 else SCALAR_OPERAND
                    if fill != SCALAR_OPERAND and fill[0] not in POINTER_KINDS:
                        self._untyped(pc, insn)
                self.inline_mem_ops += 1
            elif cls == "stx" or cls == "st":
                (kind, base), val_kind = facts.operands[pc]
                if cls == "st":
                    val_kind = SCALAR_OPERAND
                if kind == PTR_TO_PACKET:
                    if val_kind != SCALAR_OPERAND:
                        self._untyped(pc, insn)
                elif kind != PTR_TO_STACK or base is None or (
                    val_kind != SCALAR_OPERAND and val_kind[0] not in POINTER_KINDS
                ):
                    self._untyped(pc, insn)
                self.inline_mem_ops += 1
            elif cls in BRANCH:
                lk, rk = facts.operands[pc]
                if cls == "jmpi":
                    rk = SCALAR_OPERAND
                if not lk == rk == SCALAR_OPERAND:
                    self._untyped(pc, insn)  # pointer null checks included
            elif cls == "call":
                sig = helpers_mod.HELPER_SIGS[insn.imm]
                if MIXED_OPERAND in facts.call_args[pc][: len(sig.args)]:
                    self._untyped(pc, insn)
            elif cls is None:
                raise JitError("unhandled op %s at pc %d" % (insn.op, pc))

    def _cfg(self) -> None:
        """Feasible successors, predecessor counts and per-pc constants."""
        facts = self.facts
        self.succs: Dict[int, Tuple[int, ...]] = {}
        preds: Dict[int, int] = {}
        for pc in facts.visited:
            insn = self.insns[pc]
            cls = self.cls[pc]
            if cls == "exit":
                succs: Tuple[int, ...] = ()
            elif cls == "ja":
                succs = (pc + insn.off + 1,)
            elif cls in BRANCH:
                outcomes = facts.branch_outcomes[pc]
                succs = tuple(sorted({pc + 1 if not taken else pc + insn.off + 1 for taken in outcomes}))
            else:
                succs = (pc + 1,)
            self.succs[pc] = succs
            for succ in succs:
                preds[succ] = preds.get(succ, 0) + 1
        self.preds = preds
        self.leaders = {0} | {pc for pc, n in preds.items() if n > 1}
        for pc, succs in self.succs.items():
            if len(succs) > 1 or self.cls[pc] == "ja":
                self.leaders.update(succs)
        # what the verifier knows where a block starts, by location
        self.consts: Dict[int, Dict[int, int]] = {}
        for pc in self.leaders:
            regs, slots = facts.consts[pc]
            known = {reg: value for reg, value in enumerate(regs) if value is not None}
            for off, value in slots.items():
                loc = self.slot_loc.get(off)
                if loc is not None:
                    known[loc] = value
            self.consts[pc] = known

    def _liveness(self) -> None:
        """Which registers and locals each pc may still read, as bitmasks."""
        live_in: Dict[int, int] = {}
        live_out: Dict[int, int] = {}
        for pc in sorted(self.facts.visited, reverse=True):
            out = 0
            for succ in self.succs[pc]:
                out |= live_in[succ]
            live_out[pc] = out
            use, define = self._use_def(pc, self.insns[pc], out)
            live_in[pc] = use | (out & ~define)
        self.live_in, self.live_out = live_in, live_out

    def _use_def(self, pc: int, insn: Insn, out: int) -> Tuple[int, int]:
        """What ``pc`` reads and writes, given what is live after it. A
        computation whose result is dead reads nothing: it emits no code."""
        cls = self.cls[pc]
        if cls in PURE and not out >> insn.dst & 1:
            return 0, 1 << insn.dst
        if cls == "stx" or cls == "st":
            loc = self._slot_loc_at(pc, 0)
            if loc is not None and not out >> loc & 1:
                return 0, 1 << loc
        dst, src = 1 << insn.dst, 1 << insn.src
        if cls == "mov_imm" or cls == "ld_map":
            return 0, dst
        if cls == "mov_reg":
            return src, dst
        if cls == "alui" or cls == "neg":
            return dst, dst
        if cls == "alu":
            return dst | src, dst
        if cls == "ldx":
            return src | self._slot_bit(pc, 1), dst
        if cls == "stx":
            return dst | src, self._slot_bit(pc, 0)
        if cls == "st":
            return dst, self._slot_bit(pc, 0)
        if cls == "jmpi":
            return dst, 0
        if cls == "jmp":
            return dst | src, 0
        if cls == "call":
            nargs = len(helpers_mod.HELPER_SIGS[insn.imm].args)
            return (1 << nargs + 1) - 2, 0b111111
        if cls == "tail":
            return 0b1100, 0
        if cls == "exit":
            return 1, 0
        return 0, 0  # ja

    def _slot_loc_at(self, pc: int, operand: int) -> Optional[int]:
        """The local location that the access at ``pc`` uses, if any."""
        kind, base = self.facts.operands[pc][operand]
        if kind != PTR_TO_STACK or base is None:
            return None
        return self.slot_loc.get(base + self.insns[pc].off)

    def _slot_bit(self, pc: int, operand: int) -> int:
        loc = self._slot_loc_at(pc, operand)
        return 0 if loc is None else 1 << loc

    def _layout(self) -> None:
        """Choose the join points laid out once at the top level, which of
        them test ``_g``, and which edges set it."""
        copies = set()
        for pc, n in self.preds.items():
            if n > 1 and self._short_exit(pc):
                copies.add(pc)
        self.copies = copies
        roots = {pc for pc, n in self.preds.items() if n > 1} - copies
        while True:
            self._terminates(roots)
            edges, deep = self._walk_structure(roots)
            if deep is None:
                break
            roots.add(deep)  # starts a new tree at the top level
        self.roots = roots
        order = [0] + sorted(roots)
        position = {pc: i for i, pc in enumerate(order)}
        guarded = {
            join for join in roots
            if any(position[tree] < position[join] < position[target] for tree, target in edges)
        }
        self.guarded = guarded
        self.set_g = {
            (tree, target) for tree, target in edges
            if any(position[tree] < position[join] <= position[target] for join in guarded)
        }

    def _short_exit(self, pc: int) -> bool:
        """Does ``pc`` reach ``exit`` within ``COPY_MAX`` straight-line
        instructions (no helper call)?"""
        for __ in range(COPY_MAX):
            cls = self.cls[pc]
            if cls == "exit":
                return True
            if cls == "call" or cls == "tail" or len(self.succs[pc]) != 1:
                return False
            pc = self.succs[pc][0]
        return False

    def _terminates(self, roots: Set[int]) -> None:
        """``term[pc]``: every path from ``pc`` returns before it reaches a
        top-level join; ``size[pc]``: the instructions laid out from it."""
        term: Dict[int, bool] = {}
        size: Dict[int, int] = {}
        for pc in sorted(self.facts.visited, reverse=True):
            inline = [succ for succ in self.succs[pc] if succ not in roots]
            term[pc] = len(inline) == len(self.succs[pc]) and all(term[succ] for succ in inline)
            size[pc] = 1 + sum(size[succ] for succ in inline)
        self.term, self.size = term, size

    def arms(self, pc: int, roots: Set[int]):
        """How a two-way branch at ``pc`` lays out: the successor nested
        under ``if`` and the one continuing at the same level, the shorter
        nested when both return; (None, None) when both nest."""
        fall, taken = self.succs[pc]
        arms = [succ for succ in (fall, taken) if succ not in roots and self.term[succ]]
        if not arms:
            return None, None
        nested = min(arms, key=lambda succ: (self.size[succ], succ))
        return nested, taken if nested == fall else fall

    def _walk_structure(self, roots: Set[int]):
        """The (tree, join) edges of the layout, and the first block that
        would nest deeper than ``MAX_DEPTH`` (or None)."""
        edges = set()
        for tree in [0] + sorted(roots):
            work = [(tree, 2)]
            while work:
                pc, depth = work.pop()
                while True:
                    if pc != tree and pc in roots:
                        edges.add((tree, pc))
                        break
                    if pc in self.copies and pc != tree:
                        break  # a copied exit block: a leaf
                    if depth > MAX_DEPTH:
                        return edges, pc
                    succs = self.succs[pc]
                    if len(succs) == 2:
                        nested, same = self.arms(pc, roots)
                        if nested is None:
                            work += [(succ, depth + 1) for succ in succs]
                            break
                        work.append((nested, depth + 1))
                        pc = same
                    elif succs:
                        pc = succs[0]
                    else:
                        break
        return edges, None
