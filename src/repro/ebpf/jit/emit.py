"""Python source for one verified program: the JIT's code generator.

:class:`Emitter` walks the block layout that
:class:`~repro.ebpf.jit.layout.Layout` chose and turns one instruction at
a time into Python source, tracking each register and stack local as a
constant, a variable or a deferred byte read
(:mod:`repro.ebpf.jit.values`) so that copies, spills and dead stores emit
nothing, and charging the instruction counts before every helper call.
:func:`repro.ebpf.jit.compiler.compile_program` runs it and compiles the
source.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Tuple

from repro.ebpf import helpers as helpers_mod
from repro.ebpf.analysis.domain import PTR_TO_PACKET, PTR_TO_STACK
from repro.ebpf.analysis.interp import Analysis, SCALAR_OPERAND
from repro.ebpf.isa import MASK64, Insn, Op
from repro.ebpf.jit.layout import BRANCH, PURE, Layout
from repro.ebpf.jit.values import Bytes, State, bytes_alu, fold_alu, plus, scalar_expr, signed, signed_expr
from repro.ebpf.program import Program
from repro.ebpf.vm import STACK_SIZE

#: The generated code's region variable for each pointer kind, which a
#: materialized :class:`Pointer` refers to.
REGION = {PTR_TO_PACKET: "_pkr", PTR_TO_STACK: "_stk"}

_CMP_TOKENS = {
    Op.JEQ_IMM: "==", Op.JEQ_REG: "==",
    Op.JNE_IMM: "!=", Op.JNE_REG: "!=",
    Op.JGT_IMM: ">", Op.JGT_REG: ">",
    Op.JGE_IMM: ">=", Op.JGE_REG: ">=",
    Op.JLT_IMM: "<", Op.JLT_REG: "<",
    Op.JLE_IMM: "<=", Op.JLE_REG: "<=",
    Op.JSET_IMM: "&",
}
_NEGATED = {"==": "!=", "!=": "==", ">": "<=", ">=": "<", "<": ">=", "<=": ">"}
_COMPARE = {
    "==": operator.eq, "!=": operator.ne, ">": operator.gt, ">=": operator.ge,
    "<": operator.lt, "<=": operator.le, "&": operator.and_,
}


class Emitter:
    """The source of one program's ``_fpm`` function, from its verifier
    facts and layout. ``report`` is the compile's
    :class:`~repro.ebpf.jit.compiler.JitReport`, whose pass counters the
    emitter fills in; ``ns`` names the maps and helpers the code calls."""

    def __init__(self, program: Program, facts: Analysis, layout: Layout, report) -> None:
        self.program = program
        self.insns = program.insns
        self.facts = facts
        self.layout = layout
        self.report = report
        self.lines: List[str] = []
        self.used: Dict[str, bool] = {}  # prologue variables the code reads
        self.ns: Dict[str, object] = {}  # maps and helpers the code calls
        self._tmp = 0
        self._move: Optional[tuple] = None  # the last emitted line, when it is a byte move

    def source(self) -> str:
        """Emit the function; its source."""
        self._translate()
        return self._assemble()

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def use(self, name: str) -> None:
        self.used[name] = True

    def tmp(self) -> str:
        self._tmp += 1
        return "_t%d" % self._tmp

    # -------------------------------------------------------------- blocks

    def _translate(self) -> None:
        nloc = len(self.layout.home)
        vals: List[object] = [None] * nloc
        for off in self.layout.locals:
            vals[self.layout.slot_loc[off]] = 0  # a fresh frame's bytes are zero
        vals[2], vals[3] = "r2", "r3"
        for loc, value in self.layout.consts[0].items():
            vals[loc] = value
        self._walk(0, State(vals, 0, False, 0), 1, 0)
        for root in sorted(self.layout.roots):
            vals = [self.layout.home[loc] for loc in range(nloc)]
            for loc, value in self.layout.consts[root].items():
                vals[loc] = value
            state = State(vals, 0, True, None)
            if root in self.layout.guarded:
                self.emit(1, "if _g <= %d:" % root)
                self._walk(root, state, 2, root)
            else:
                self._walk(root, state, 1, root)

    def _walk(self, pc: int, st: State, ind: int, tree: int) -> None:
        """Emit the blocks from ``pc`` on, nesting single-predecessor
        successors, until every path returns or reaches a join. Every
        walk emits a line: a return, a test, or the edge into a join."""
        while True:
            if pc != tree and pc in self.layout.roots:
                self._goto(st, tree, pc, ind)
                return
            if pc in self.layout.leaders:
                # a block starts: take up what the verifier knows here
                # (within a block the values above carry it forward)
                self.report.blocks += 1
                for loc, value in self.layout.consts[pc].items():
                    st.vals[loc] = value
            insn = self.insns[pc]
            cls = self.layout.cls[pc]
            st.k += 1
            succs = self.layout.succs[pc]
            if cls in BRANCH:
                outcome = self._decided(pc, insn, st) if len(succs) == 2 else succs[0]
                if outcome is not None:
                    self.report.folded += 1  # decided at compile time
                    pc = outcome
                    continue
                self._branch(pc, insn, st, ind, tree)
                return
            if cls == "ja":
                pc = succs[0]
                continue
            if cls == "exit":
                self._flush(st, ind)
                self.emit(ind, "return (0, %s, %s, None)" % (self._read(st, 0, ind, 0, 1), st.count()))
                return
            self._insn(pc, insn, cls, st, ind)
            pc += 1

    def _decided(self, pc: int, insn: Insn, st: State) -> Optional[int]:
        """The successor a branch on two known constants takes (the
        compiler knows a fresh frame's zeros, which the verifier does not
        track), else None."""
        left = st.vals[insn.dst]
        right = insn.imm & MASK64 if self.layout.cls[pc] == "jmpi" else st.vals[insn.src]
        if type(left) is not int or type(right) is not int:
            return None
        return pc + insn.off + 1 if _COMPARE[_CMP_TOKENS[insn.op]](left, right) else pc + 1

    def _branch(self, pc: int, insn: Insn, st: State, ind: int, tree: int) -> None:
        live = self.layout.live_out[pc]
        keep = live | 1 << insn.dst
        if self.layout.cls[pc] == "jmpi":
            left = self._read(st, insn.dst, ind, live, keep)
            right = str(insn.imm & MASK64)
        else:
            keep |= 1 << insn.src
            left = self._read(st, insn.dst, ind, live, keep)
            right = self._read(st, insn.src, ind, live, keep)
        token = _CMP_TOKENS[insn.op]
        taken = pc + insn.off + 1
        nested, same = self.layout.arms(pc, self.layout.roots)
        if nested is None:
            self.emit(ind, "if %s %s %s:" % (left, token, right))
            self._walk(taken, st.copy(), ind + 1, tree)
            self.emit(ind, "else:")
            self._walk(pc + 1, st, ind + 1, tree)
            return
        if nested == taken:
            cond = "%s %s %s" % (left, token, right)
        elif token == "&":
            cond = "not %s & %s" % (left, right)
        else:
            cond = "%s %s %s" % (left, _NEGATED[token], right)
        self.emit(ind, "if %s:" % cond)
        self._walk(nested, st.copy(), ind + 1, tree)
        self._walk(same, st, ind, tree)

    def _goto(self, st: State, tree: int, target: int, ind: int) -> None:
        """The edge into the join ``target``, as one assignment: every value
        the join reads and does not know as a constant into its variable,
        the counters, and ``_g`` where a guarded join lies between. Python
        reads every source before it stores any target, so the order of
        the pairs does not matter."""
        live = self.layout.live_in[target]
        known = self.layout.consts[target]
        targets, sources = [], []
        for loc, value in enumerate(st.vals):
            if live >> loc & 1 and loc not in known and value is not None and value != self.layout.home[loc]:
                targets.append(self.layout.home[loc])
                sources.append(value.expr() if isinstance(value, Bytes) else str(value))
        if not st.dyn:
            targets += ["_n", "_c"]
            sources += [str(st.k), str(st.kc)]
        else:
            if st.kc is not None:
                targets.append("_c")
                sources.append(plus("_n", st.kc))
            targets.append("_n")
            sources.append(plus("_n", st.k))  # k >= 1: the walk ran an insn
        if (tree, target) in self.layout.set_g:
            targets.append("_g")
            sources.append(str(target))
        self.emit(ind, "%s = %s" % (", ".join(targets), ", ".join(sources)))

    def _assemble(self) -> str:
        used = self.used
        prologue = ["def _fpm(env, _a, _chg, _ci):"]
        entry = self.layout.live_in[0]
        known = self.layout.consts[0]
        for reg in (2, 3):
            if entry >> reg & 1 and reg not in known:
                prologue.append("    r%d = _a[%d]" % (reg, reg - 1))
        if used.get("_pkr"):
            prologue.append("    _pkr = _a[0].region")
            if used.get("_pkd"):
                prologue.append("    _pkd = _pkr.data")
        elif used.get("_pkd"):
            prologue.append("    _pkd = _a[0].region.data")
        if any(used.get(name) for name in ("_stk", "_skd", "_spd", "_sinv")):
            # the frame's Region, for the bytes no local holds
            prologue.append('    _stk = _Region("stack", bytearray(%d), True)' % STACK_SIZE)
        if used.get("_skd"):
            prologue.append("    _skd = _stk.data")
        if used.get("_spd"):
            prologue.append("    _spd = _stk._spilled")
        if used.get("_sinv"):
            prologue.append("    _sinv = _stk._invalidate")
        return "\n".join(prologue + self.lines) + "\n"

    # ----------------------------------------------------------- counters

    def _flush(self, st: State, ind: int) -> None:
        """Charge everything executed since the last charge."""
        if st.kc is None:
            self.emit(ind, "_chg((_n - _c + %d) * _ci)" % st.k)
        elif st.k > st.kc:
            self.emit(ind, "_chg(%d * _ci)" % (st.k - st.kc))
        st.kc = st.k

    # ------------------------------------------------------------- values
    #
    # While an instruction reads its operands, ``live`` is what is still
    # read after the instruction and ``keep`` adds the operands it reads:
    # a variable that a location in ``keep`` names must not be written
    # before the instruction's own line has read it.

    def _read(self, st: State, loc: int, ind: int, live: int, keep: int) -> str:
        """Source for ``loc``'s value."""
        value = st.vals[loc]
        if type(value) is int:
            return str(value) if value >= 0 else "(%d)" % value
        if type(value) is str:
            return value
        return self._force(st, value, ind, live, keep)

    def _force(self, st: State, value: Bytes, ind: int, live: int, keep: int) -> str:
        """Read deferred bytes now: inline when nothing live keeps them,
        else into a keeper's variable, a local's when there is one."""
        keepers = [loc for loc, held in enumerate(st.vals) if held is value and live >> loc & 1]
        if not keepers:
            return value.expr()
        name = self._assign(st, keepers[-1], value.expr(), ind, keep)
        for loc, held in enumerate(st.vals):
            if held is value:
                st.vals[loc] = name
        return name

    def _assign(self, st: State, loc: int, expr: str, ind: int, keep: int) -> str:
        """Emit ``loc``'s variable = ``expr`` (a temporary instead when a
        location in ``keep`` still reads the variable's old value)."""
        name = self.layout.home[loc]
        if any(held == name and other != loc and keep >> other & 1 for other, held in enumerate(st.vals)):
            name = self.tmp()
        else:
            for other, held in enumerate(st.vals):
                if held == name and other != loc:
                    st.vals[other] = None  # dead: nothing reads it again
        self.emit(ind, "%s = %s" % (name, expr))
        st.vals[loc] = name
        return name

    def _flush_bytes(
        self, st: State, buf: Optional[str], low: int, high: Optional[int], ind: int, live: int, keep: int
    ) -> None:
        """Before ``buf[low:high]`` changes (any buffer when ``buf`` is
        None), read every deferred value of those bytes that a location in
        ``live`` still holds. The instruction about to write may still read
        the others inline: a statement reads before it writes."""
        for value in {id(v): v for v in st.vals if isinstance(v, Bytes)}.values():
            if buf is None or value.touches(buf, low, high):
                if any(held is value and live >> loc & 1 for loc, held in enumerate(st.vals)):
                    self._force(st, value, ind, live, keep)

    # --------------------------------------------------------- instructions

    def _insn(self, pc: int, insn: Insn, cls: str, st: State, ind: int) -> None:
        vals = st.vals
        if cls in PURE and not self.layout.live_out[pc] >> insn.dst & 1:
            vals[insn.dst] = None  # dead: nothing reads the result
        elif cls == "mov_imm":
            vals[insn.dst] = insn.imm & MASK64
        elif cls == "mov_reg":
            vals[insn.dst] = vals[insn.src]
        elif cls == "ld_map":
            mname = "_m%d" % insn.imm
            self.ns[mname] = self.program.maps[insn.imm]
            vals[insn.dst] = mname
        elif cls == "alu" or cls == "alui" or cls == "neg":
            self._alu(pc, insn, st, ind)
        elif cls == "ldx":
            self._ldx(pc, insn, st, ind)
        elif cls == "stx" or cls == "st":
            self._store(pc, insn, st, ind)
        elif cls == "call":
            self._call(pc, insn, st, ind)
        else:  # TAIL_CALL
            self._tail_call(pc, insn, st, ind)

    def _known(self, pc: int) -> Optional[int]:
        """The value ``pc`` writes when the verifier proved it constant."""
        return self.facts.results[pc]

    def _result(self, pc: int, st: State, dst: int, expr: str, ind: int) -> None:
        # the line reads its operands before it writes dst
        self._assign(st, dst, expr, ind, self.layout.live_out[pc] & ~(1 << dst))

    def _alu(self, pc: int, insn: Insn, st: State, ind: int) -> None:
        dst = insn.dst
        known = self._known(pc)
        if known is not None:
            self.report.folded += 1
            st.vals[dst] = known
            return
        live = self.layout.live_out[pc] & ~(1 << dst)
        keep = live | 1 << dst
        if self.layout.cls[pc] == "neg":  # the verifier admits NEG on scalars only
            self._result(pc, st, dst, "(-%s) & %d" % (self._read(st, dst, ind, live, keep), MASK64), ind)
            return
        imm_form = self.layout.cls[pc] == "alui"
        op_name = insn.op.value[:-4]
        lk, rk = self.facts.operands[pc]
        left = st.vals[dst]
        if imm_form:
            right = insn.imm & MASK64
            rk = SCALAR_OPERAND
        else:
            right = st.vals[insn.src]
            keep |= 1 << insn.src
        if lk == rk == SCALAR_OPERAND:
            if type(left) is int and type(right) is int:
                self.report.folded += 1
                st.vals[dst] = fold_alu(op_name, left, right)
                return
            folded = bytes_alu(op_name, left, right)
            if folded is not None:
                st.vals[dst] = folded
                return
            lhs = self._read(st, dst, ind, live, keep)
            rhs = str(right) if type(right) is int else self._read(st, insn.src, ind, live, keep)
            self._result(pc, st, dst, scalar_expr(op_name, lhs, rhs, right), ind)
            return
        # pointer ± scalar or scalar + pointer, on the offset (the verifier
        # admits add/sub on a left pointer, add on a right one)
        if lk == SCALAR_OPERAND:
            pointer, scalar, sign = right, left, "+"
            pointer_src, scalar_src = insn.src, dst
        else:
            pointer, scalar, sign = left, right, "-" if op_name == "sub" else "+"
            pointer_src, scalar_src = dst, None if imm_form else insn.src
        if type(scalar) is int:
            delta = -signed(scalar) if sign == "-" else signed(scalar)
            if type(pointer) is int:
                self.report.folded += 1
                st.vals[dst] = pointer + delta
                return
            self._result(pc, st, dst, plus(self._read(st, pointer_src, ind, live, keep), delta), ind)
            return
        base = self._read(st, pointer_src, ind, live, keep)
        offset = signed_expr(self._read(st, scalar_src, ind, live, keep))
        self._result(pc, st, dst, "%s %s %s" % (base, sign, offset), ind)

    # ------------------------------------------------------------- memory
    #
    # The verifier proved every access below in bounds: packet accesses
    # within the length argument the hook passes (always len(frame), which
    # the engine's ABI guard checks), stack accesses inside the frame. The
    # packet region never holds spills, so its slices need no checks at all.

    def _address(
        self, insn: Insn, st: State, reg: int, ind: int, live: int, keep: int
    ) -> Tuple[Optional[int], str]:
        """An access's address: its constant offset (or None) and source."""
        base = st.vals[reg]
        if type(base) is int:
            self.report.folded += 1
            return base + insn.off, str(base + insn.off)
        return None, plus(self._read(st, reg, ind, live, keep), insn.off)

    def _ldx(self, pc: int, insn: Insn, st: State, ind: int) -> None:
        kind, base = self.facts.operands[pc][1]
        size, dst = insn.imm, insn.dst
        if kind == PTR_TO_PACKET:
            self.use("_pkd")
            live = self.layout.live_out[pc]
            const, addr = self._address(insn, st, insn.src, ind, live, live | 1 << insn.src)
            if const is not None:
                st.vals[dst] = Bytes((("_pkd", const, const + size),))
            elif size == 1:
                self._result(pc, st, dst, "_pkd[%s]" % addr, ind)
            else:
                self._result(pc, st, dst, 'int.from_bytes(_pkd[%s:%s], "big")' % (addr, plus(addr, size)), ind)
            return
        off = base + insn.off
        loc = self.layout.slot_loc.get(off)
        if loc is not None:
            st.vals[dst] = st.vals[loc]
            return
        known = self._known(pc)
        if known is not None:
            self.report.folded += 1
            st.vals[dst] = known
            return
        fill = self.facts.fills[pc] if size == 8 else SCALAR_OPERAND
        if fill == SCALAR_OPERAND:
            self.use("_skd")
            st.vals[dst] = Bytes((("_skd", off, off + size),))
        else:
            # a pointer spilled into the Region on every path
            self.use("_spd")
            self._result(pc, st, dst, "_spd[%d].offset" % off, ind)

    def _store(self, pc: int, insn: Insn, st: State, ind: int) -> None:
        is_stx = self.layout.cls[pc] == "stx"
        size = insn.imm if is_stx else insn.src
        (kind, base), val_kind = self.facts.operands[pc]
        live = self.layout.live_out[pc]
        keep = live | 1 << insn.dst
        if is_stx:
            value = st.vals[insn.src]
            keep |= 1 << insn.src
        else:
            val_kind = SCALAR_OPERAND
            value = insn.imm & ((1 << (8 * size)) - 1)
        if kind == PTR_TO_STACK:
            off = base + insn.off
            loc = self.layout.slot_loc.get(off)
            if loc is not None:
                # any kind: a pointer's local holds its offset
                if live >> loc & 1:
                    st.vals[loc] = value
                else:
                    self.report.dead_stores += 1
                    st.vals[loc] = None
                return
            if val_kind != SCALAR_OPERAND:
                # a real 8-byte spill into the Region's spill bookkeeping
                self._flush_bytes(st, "_skd", off, off + 8, ind, live, keep)
                pointer = self._pointer(st, insn.src, val_kind[0], ind, live, keep)
                self.use("_stk")
                self.emit(ind, "_stk.store_word(%d, 8, %s)" % (off, pointer))
                return
            self.use("_skd")
            self._flush_bytes(st, "_skd", off, off + size, ind, live, keep)
            if pc in self.facts.spill_clobbers:
                self.use("_sinv")
                self.emit(ind, "_sinv(%d, %d)" % (off, size))
            self._write_bytes(insn, st, "_skd", off, str(off), size, value, ind, live, keep)
            return
        self.use("_pkd")
        const, addr = self._address(insn, st, insn.dst, ind, live, keep)
        self._flush_bytes(st, "_pkd", const or 0, None if const is None else const + size, ind, live, keep)
        self._write_bytes(insn, st, "_pkd", const, addr, size, value, ind, live, keep)

    def _write_bytes(self, insn, st, buf, const, addr, size, value, ind, live, keep) -> None:
        """``buf[addr:addr + size]`` = the low ``size`` bytes of ``value``."""
        if isinstance(value, Bytes) and value.width >= size and const is not None:
            parts = value.tail(size).parts
            if all(src is not None and (src != buf or high <= const or const + size <= low)
                   for src, low, high in parts):
                at = const
                for src, low, high in parts:
                    self._byte_move(buf, at, src, low, high, ind)
                    at += high - low
                return
        self._move = None
        end = plus(addr, size) if const is None else str(const + size)
        if type(value) is int:
            data = (value & ((1 << (8 * size)) - 1))
            if size == 1:
                self.emit(ind, "%s[%s] = %d" % (buf, addr, data))
            else:
                self.emit(ind, "%s[%s:%s] = %r" % (buf, addr, end, data.to_bytes(size, "big")))
            return
        expr = self._read(st, insn.src, ind, live, keep)
        if size == 1:
            self.emit(ind, "%s[%s] = %s & 255" % (buf, addr, expr))
        else:
            mask = "" if size == 8 else " & %d" % ((1 << (8 * size)) - 1)
            self.emit(ind, '%s[%s:%s] = (%s%s).to_bytes(%d, "big")' % (buf, addr, end, expr, mask, size))

    def _byte_move(self, buf: str, at: int, src: str, low: int, high: int, ind: int) -> None:
        """Emit ``buf[at:…] = src[low:high]``, merged into the move the last
        line made when both ranges continue it."""
        last = self._move
        size = high - low
        if (
            last is not None and last[0] == len(self.lines) and last[1:4] == (ind, buf, src)
            and last[5] == at and last[7] == low
            and not (buf == src and last[4] < high and low < last[5])
        ):
            __, __, __, __, start, __, sstart, __ = last
            self.report.fused_moves += 1
            self.lines[-1] = "    " * ind + "%s[%d:%d] = %s[%d:%d]" % (buf, start, at + size, src, sstart, high)
            self._move = (len(self.lines), ind, buf, src, start, at + size, sstart, high)
            return
        if size == 1:
            self.emit(ind, "%s[%d] = %s[%d]" % (buf, at, src, low))
        else:
            self.emit(ind, "%s[%d:%d] = %s[%d:%d]" % (buf, at, at + size, src, low, high))
        self._move = (len(self.lines), ind, buf, src, at, at + size, low, high)

    def _pointer(self, st: State, reg: int, kind: str, ind: int, live: int, keep: int) -> str:
        """A real :class:`Pointer` for the pointer in ``reg``."""
        offset = st.vals[reg]
        if kind == PTR_TO_PACKET and offset == 0:
            return "_a[0]"  # the hook's own argument
        self.use(REGION[kind])
        return "_Ptr(%s, %s)" % (REGION[kind], self._read(st, reg, ind, live, keep))

    # -------------------------------------------------------------- calls

    def _call(self, pc: int, insn: Insn, st: State, ind: int) -> None:
        helper_id = insn.imm
        sig = helpers_mod.HELPER_SIGS[helper_id]
        live = self.layout.live_out[pc]
        after = live & ~0b111111  # the call writes r0 and clobbers r1-r5
        keep = after | (1 << len(sig.args) + 1) - 2  # and reads its arguments
        # deferred reads held past the call are read before it: the helper
        # may write the bytes
        self._flush_bytes(st, None, 0, None, ind, after, keep)
        # Each argument the signature declares goes over as the interpreter
        # passes it, a pointer as a real Pointer; the helper reads no other.
        args = []
        for index, kind in enumerate(self.facts.call_args[pc][: len(sig.args)]):
            reg = index + 1
            if kind is None or st.vals[reg] is None:
                args.append("None")
            elif kind[0] in REGION:
                args.append(self._pointer(st, reg, kind[0], ind, after, keep))
            else:
                args.append(self._read(st, reg, ind, after, keep))
        args += ["None"] * (5 - len(args))
        hname = "_h%d" % helper_id
        self.ns[hname] = helpers_mod.HELPERS[helper_id][1]
        self._flush(st, ind)
        call = "%s(env, [%s])" % (hname, ", ".join(args))
        for reg in range(1, 6):
            st.vals[reg] = None  # helper calls clobber the argument registers
        self.emit(ind, "try:")
        known = self._known(pc)
        if known is not None or not live & 1:
            self.emit(ind + 1, call)
            st.vals[0] = known
        else:
            self._assign(st, 0, call, ind + 1, live & ~1)
        # the count was charged before the call, as the interpreter does
        self.emit(ind, "except (_HErr, _Mem) as _e:")
        self.emit(ind + 1, "raise _VMError(%r + str(_e)) from _e" % ("%s@%d: " % (self.program.name, pc)))
        self._move = None

    def _tail_call(self, pc: int, insn: Insn, st: State, ind: int) -> None:
        # the verifier proved r2 a prog array and r3 a scalar on every path
        limit_msg = "%s@%d: tail call limit exceeded" % (self.program.name, pc)
        live = self.layout.live_out[pc]
        prog_array = self._read(st, 2, ind, live, live | 0b1100)
        index = self._read(st, 3, ind, live, live | 0b1100)
        self._flush(st, ind)
        t = self.tmp()
        self.emit(ind, "%s = %s.get_prog(%s)" % (t, prog_array, index))
        self.emit(ind, "if %s is not None:" % t)
        self.emit(ind + 1, "return (1, %s, %s, %r)" % (t, st.count(), limit_msg))
        # empty slot: fall through to the next instruction, as in real eBPF
