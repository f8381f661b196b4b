"""Bytecode → Python translation for verified FPM programs.

The translator runs a single forward abstract-interpretation pass over
the program (legal because the verifier rejects backward jumps, so the
CFG is a DAG and every branch edge points forward) tracking a *kind*
per register and a *spill state* per stack slot:

``i``  a 64-bit scalar (a plain masked Python int at runtime)
``p``  a packet pointer (a real :class:`Pointer` into the frame region)
``s``  a stack pointer, with its byte offset tracked statically when
       derivable (minic derives stack addresses from r10 with constant
       immediates, so it always is in practice)
``m``  a map object materialized by ``LD_MAP``, index tracked
``u``  uninitialized (``None`` at runtime)
``g``  generic — emit interpreter-equivalent code for this operand

minic spills everything through the stack — including the packet
pointer parameter — so the spill state is what makes the output fast:
a slot that provably holds a spilled packet pointer reloads as a plain
dict lookup, and a slot that provably holds scalar bytes loads as an
inline ``int.from_bytes`` with no spill bookkeeping at all.

Runtime values are kept bit-identical to the interpreter's (the same
``Pointer`` objects, the same shared stack ``Region`` with its real
``_spilled`` dict), which is what lets a tail call into a program the
JIT cannot compile resume in the interpreter mid-chain with zero state
translation.

Instruction counts and cost charges are batched into ``_n`` and
flushed — ``charge_ns((_n - _c) * insn_cost)`` — before every helper
call, tail call, exit, and abort, so helpers that read the clock
(``ktime_get_ns``, conntrack expiry) observe exactly the interpreter's
timeline and aborted runs charge exactly what the interpreter charged.
The interpreter counts an instruction *before* executing it, so the
generated code syncs ``_n`` ahead of every statement that can raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.ebpf import helpers as helpers_mod
from repro.ebpf.analysis.errors import VerifierError
from repro.ebpf.analysis.interp import interpret
from repro.ebpf.isa import ALU_IMM_OPS, ALU_REG_OPS, JMP_IMM_OPS, JMP_REG_OPS, MASK64, Op
from repro.ebpf.maps import ProgArray
from repro.ebpf.memory import MemoryError_, Pointer
from repro.ebpf.program import Program
from repro.ebpf.verifier import check_structure
from repro.ebpf.vm import STACK_SIZE, VMError

__all__ = ["CompiledUnit", "JitError", "JitReport", "compile_program"]

_SIGN_BIT = 1 << 63
_TWO64 = 1 << 64

#: Hook-ABI entry kinds: r1 = packet pointer, r2 = length, r3 = ifindex.
_ENTRY_KINDS = (
    ("u",),  # r0
    ("p",),  # r1
    ("i",),  # r2
    ("i",),  # r3
    ("u",),  # r4
    ("u",),  # r5
    ("u",),  # r6
    ("u",),  # r7
    ("u",),  # r8
    ("u",),  # r9
    ("s", STACK_SIZE),  # r10
)

_CMP_TOKENS = {
    Op.JEQ_IMM: "eq", Op.JEQ_REG: "eq",
    Op.JNE_IMM: "ne", Op.JNE_REG: "ne",
    Op.JGT_IMM: "gt", Op.JGT_REG: "gt",
    Op.JGE_IMM: "ge", Op.JGE_REG: "ge",
    Op.JLT_IMM: "lt", Op.JLT_REG: "lt",
    Op.JLE_IMM: "le", Op.JLE_REG: "le",
    Op.JSET_IMM: "set",
}
_CMP_PY = {"eq": "==", "ne": "!=", "gt": ">", "ge": ">=", "lt": "<", "le": "<="}


class JitError(Exception):
    """Compilation declined: the engine falls back to the interpreter."""


class _JitHalt(Exception):
    """Internal: carries a program abort plus the executed-insn count out
    of a compiled function (the engine re-raises the wrapped error)."""

    def __init__(self, error: BaseException, executed: int) -> None:
        super().__init__(str(error))
        self.error = error
        self.executed = executed


@dataclass
class JitReport:
    """What compilation did — ``fallback`` means the interpreter serves."""

    status: str  # "compiled" | "fallback"
    error: Optional[str] = None
    insns: int = 0
    blocks: int = 0
    inline_mem_ops: int = 0  # packet/stack accesses emitted as direct slices
    generic_ops: int = 0  # ops kept in interpreter-equivalent form
    folded_null_checks: int = 0


@dataclass
class CompiledUnit:
    """One program's compiled executor.

    ``fn(env, args5, stack, charge_ns, insn_cost)`` returns a 4-tuple
    ``(tag, value, executed, tail_msg)``: ``TAG_EXIT`` with the r0
    verdict, or ``TAG_TAIL`` with the prog-array slot to chain into
    (``tail_msg`` is the pre-baked limit-exceeded message for that call
    site). Aborts raise :class:`_JitHalt` wrapping the real error.

    The unit holds no reference back to its program, and ``fn``'s globals
    do not hold ``fn``: a retired program and its unit are freed by
    reference counting alone.
    """

    fn: Callable
    source: str  # the generated Python, for debugging and tests

    TAG_EXIT = 0
    TAG_TAIL = 1


def _signed(imm: int) -> int:
    value = imm & MASK64
    return value - _TWO64 if value >= _SIGN_BIT else value


def _merge_kind(a: Tuple, b: Tuple) -> Tuple:
    if a == b:
        return a
    if a[0] == "u":
        return b  # the verifier proves the uninit path never reads it
    if b[0] == "u":
        return a
    if a[0] == b[0] and a[0] in ("s", "m"):
        return (a[0], None)
    return ("g",)


def _merge_spill(a, b):
    if a == b:
        return a
    return "U"  # definite-spill vs definite-clean → unknown


class _State:
    """Abstract machine state at one pc: register kinds + spill map."""

    __slots__ = ("regs", "sp", "sp_other")

    def __init__(self, regs, sp, sp_other) -> None:
        self.regs = regs  # tuple of 11 kind tuples
        self.sp = sp  # {offset: kind-tuple | "C" | "U"}
        self.sp_other = sp_other  # "C" | "U" for offsets not listed in sp

    def copy(self) -> "_State":
        return _State(self.regs, dict(self.sp), self.sp_other)

    def spill_at(self, off: int):
        return self.sp.get(off, self.sp_other)

    def merge(self, other: "_State") -> "_State":
        regs = tuple(_merge_kind(a, b) for a, b in zip(self.regs, other.regs))
        sp: Dict[int, object] = {}
        for off in set(self.sp) | set(other.sp):
            sp[off] = _merge_spill(self.spill_at(off), other.spill_at(off))
        sp_other = "C" if self.sp_other == other.sp_other == "C" else "U"
        return _State(regs, sp, sp_other)


class _Compiler:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.insns = program.insns
        self.report = JitReport(status="compiled", insns=len(program.insns))
        self.lines: List[str] = []
        self.used: Dict[str, bool] = {}
        self.ns: Dict[str, object] = {}
        self.pend = 0  # insns executed since the last emitted _n update
        self._tmp = 0

    # ------------------------------------------------------------- helpers

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("        " + "    " * indent + text)

    def use(self, name: str) -> None:
        self.used[name] = True

    def tmp(self) -> str:
        self._tmp += 1
        return "_t%d" % self._tmp

    def _sync(self) -> None:
        """Bring the runtime ``_n`` counter up to date with this pc."""
        if self.pend:
            self.emit(1, "_n += %d" % self.pend)
            self.pend = 0

    def _flush(self) -> None:
        """Sync the counter and charge everything accrued since the last
        flush — the clock a helper observes must match the interpreter's."""
        self._sync()
        self.emit(1, "_chg((_n - _c) * _ci)")
        self.emit(1, "_c = _n")

    def _raise(self, msg: str) -> bool:
        """Emit a constant abort (counter synced first); returns dead."""
        self._sync()
        self.emit(1, "raise _VMError(%r)" % (msg,))
        return True

    def _uninit(self, reg: int, insn) -> bool:
        return self._raise(
            "%s: read of uninitialized r%d (%r)" % (self.program.name, reg, insn)
        )

    # ------------------------------------------------------------ pipeline

    def compile(self) -> Tuple[CompiledUnit, JitReport]:
        program = self.program
        # The same proof the deployer relies on, minus verify()'s fault
        # site: compile-time verification must not trip armed chaos faults.
        try:
            check_structure(program)
            interpret(program, (1, 2, 3), None)
        except VerifierError as exc:
            raise JitError("verification failed: %s" % (exc,)) from exc
        if not self.insns:
            raise JitError("empty program")

        leaders = self._leaders()
        self._translate(leaders)
        source = self._assemble()
        self.report.blocks = len(leaders)
        namespace = dict(self.ns)
        namespace.update(
            _Ptr=Pointer,
            _VMError=VMError,
            _Mem=MemoryError_,
            _HErr=helpers_mod.HelperError,
            _Halt=_JitHalt,
            _galu=_galu,
            _gcmp=_gcmp,
            _PArr=ProgArray,
        )
        from repro.testing import faults

        namespace["_Fault"] = faults.InjectedFault
        try:
            code = compile(source, "<jit:%s>" % program.name, "exec")
            exec(code, namespace)
        except SyntaxError as exc:  # pragma: no cover - codegen bug guard
            raise JitError("generated source failed to compile: %s" % (exc,)) from exc
        # popped, so the function's globals do not reference the function
        return CompiledUnit(fn=namespace.pop("_fpm"), source=source), self.report

    def _leaders(self) -> List[int]:
        leaders = {0}
        for pc, insn in enumerate(self.insns):
            if insn.op is Op.JA or insn.op in JMP_IMM_OPS or insn.op in JMP_REG_OPS:
                leaders.add(pc + insn.off + 1)
                leaders.add(pc + 1)
        return sorted(pc for pc in leaders if pc < len(self.insns))

    def _assemble(self) -> str:
        prologue = [
            "def _fpm(env, _a, _stk, _chg, _ci):",
            "    r1 = _a[0]; r2 = _a[1]; r3 = _a[2]; r4 = _a[3]; r5 = _a[4]",
            "    r0 = r6 = r7 = r8 = r9 = None",
            "    r10 = _Ptr(_stk, %d)" % STACK_SIZE,
        ]
        if self.used.get("_pkr") or self.used.get("_pkd"):
            prologue.append("    _pkr = _a[0].region")
        if self.used.get("_pkd"):
            prologue.append("    _pkd = _pkr.data")
        if self.used.get("_skd"):
            prologue.append("    _skd = _stk.data")
        if self.used.get("_spd"):
            prologue.append("    _spd = _stk._spilled")
        if self.used.get("_sinv"):
            prologue.append("    _sinv = _stk._invalidate")
        prologue += [
            "    _n = 0",
            "    _c = 0",
            "    _g = 0",
            "    try:",
        ]
        epilogue = [
            "        raise _VMError(%r)"
            % ("%s: pc %d out of range" % (self.program.name, len(self.insns)),),
            "    except (_VMError, _Fault) as _e:",
            "        _chg((_n - _c) * _ci)",
            "        raise _Halt(_e, _n) from None",
        ]
        return "\n".join(prologue + self.lines + epilogue) + "\n"

    # ----------------------------------------------------------- translate

    def _translate(self, leaders: List[int]) -> None:
        leader_set = set(leaders)
        states: Dict[int, _State] = {0: _State(tuple(_ENTRY_KINDS), {}, "C")}
        cur: Optional[_State] = None
        dead = True

        def propagate(target: int, state: _State) -> None:
            prev = states.get(target)
            states[target] = state.copy() if prev is None else prev.merge(state)

        for pc, insn in enumerate(self.insns):
            if pc in leader_set:
                self._sync()
                cur = states.get(pc)
                dead = cur is None
                if not dead:
                    self.emit(0, "if _g <= %d:" % pc)
            if dead:
                continue
            self.pend += 1
            dead = self._insn(pc, insn, cur, leader_set, propagate)
        self._sync()

    # Each handler returns True when nothing can fall through (the rest of
    # the block is unreachable). ``propagate`` merges state into forward
    # leaders; fall-through mutates ``st`` in place.
    def _insn(self, pc, insn, st, leaders, propagate) -> bool:
        op = insn.op
        name = self.program.name

        def setreg(i, kind):
            regs = list(st.regs)
            regs[i] = kind
            st.regs = tuple(regs)

        def fall():
            if pc + 1 in leaders:
                propagate(pc + 1, st)

        if op is Op.MOV_IMM:
            self.emit(1, "r%d = %d" % (insn.dst, insn.imm & MASK64))
            setreg(insn.dst, ("i",))
            fall()
            return False

        if op is Op.MOV_REG:
            kind = st.regs[insn.src]
            if kind[0] == "u":
                return self._uninit(insn.src, insn)
            self.emit(1, "r%d = r%d" % (insn.dst, insn.src))
            setreg(insn.dst, kind)
            fall()
            return False

        if op is Op.LD_MAP:
            if insn.imm >= len(self.program.maps):
                return self._raise(
                    "%s: LD_MAP index %d out of range" % (name, insn.imm))
            mname = "_m%d" % insn.imm
            self.ns[mname] = self.program.maps[insn.imm]
            self.emit(1, "r%d = %s" % (insn.dst, mname))
            setreg(insn.dst, ("m", insn.imm))
            fall()
            return False

        if op in ALU_IMM_OPS or op in ALU_REG_OPS or op is Op.NEG:
            dead = self._alu(pc, insn, st, setreg)
            if not dead:
                fall()
            return dead

        if op is Op.LDX:
            dead = self._ldx(pc, insn, st, setreg)
            if not dead:
                fall()
            return dead

        if op in (Op.STX, Op.ST_IMM):
            dead = self._store(pc, insn, st)
            if not dead:
                fall()
            return dead

        if op is Op.JA:
            target = pc + insn.off + 1
            self._sync()
            self.emit(1, "_g = %d" % target)
            propagate(target, st)
            return True

        if op in JMP_IMM_OPS or op in JMP_REG_OPS:
            return self._jump(pc, insn, st, propagate, fall)

        if op is Op.CALL:
            dead = self._call(pc, insn, setreg)
            if not dead:
                fall()
            return dead

        if op is Op.TAIL_CALL:
            dead = self._tail_call(pc, insn, st)
            if not dead:
                fall()
            return dead

        if op is Op.EXIT:
            self._flush()
            kind = st.regs[0]
            if kind[0] == "u":
                return self._raise(
                    "%s@%d: exit with uninitialized r0" % (name, pc))
            if kind[0] in ("p", "s"):
                return self._raise(
                    "%s@%d: exit with pointer in r0" % (name, pc))
            if kind[0] in ("i", "m"):
                self.emit(1, "return (0, r0, _n, None)")
                return True
            # generic: replicate the interpreter's dynamic checks
            self.report.generic_ops += 1
            self.emit(1, "if r0 is None:")
            self.emit(2, "raise _VMError(%r)"
                      % ("%s@%d: exit with uninitialized r0" % (name, pc),))
            self.emit(1, "if isinstance(r0, _Ptr):")
            self.emit(2, "raise _VMError(%r)"
                      % ("%s@%d: exit with pointer in r0" % (name, pc),))
            self.emit(1, "return (0, r0, _n, None)")
            return True

        raise JitError("unhandled op %s at pc %d" % (op, pc))

    # ------------------------------------------------------------- ALU ops

    def _alu(self, pc, insn, st, setreg) -> bool:
        name = self.program.name
        op = insn.op
        if op is Op.NEG:
            kind = st.regs[insn.dst]
            if kind[0] == "u":
                return self._uninit(insn.dst, insn)
            if kind[0] in ("p", "s"):
                return self._raise("%s@%d: NEG on pointer" % (name, pc))
            if kind[0] == "i":
                self.emit(1, "r%d = (-r%d) & %d" % (insn.dst, insn.dst, MASK64))
            else:
                self.report.generic_ops += 1
                self._sync()
                self.emit(1, "if isinstance(r%d, _Ptr):" % insn.dst)
                self.emit(2, "raise _VMError(%r)"
                          % ("%s@%d: NEG on pointer" % (name, pc),))
                self.emit(1, "r%d = (-r%d) & %d" % (insn.dst, insn.dst, MASK64))
            setreg(insn.dst, ("i",))
            return False

        imm_form = op in ALU_IMM_OPS
        op_name = op.value[:-4]
        dst, src = insn.dst, insn.src
        lk = st.regs[dst]
        rk = ("i",) if imm_form else st.regs[src]
        if lk[0] == "u":
            return self._uninit(dst, insn)
        if not imm_form and rk[0] == "u":
            return self._uninit(src, insn)
        rhs = str(insn.imm & MASK64) if imm_form else "r%d" % src

        # pointer ± scalar → pointer arithmetic on the tracked region
        if lk[0] in ("p", "s") and rk[0] == "i":
            if op_name not in ("add", "sub"):
                return self._raise("%s: %s on pointer (%r)" % (name, op_name, insn))
            regvar = "_pkr" if lk[0] == "p" else "_stk"
            if lk[0] == "p":
                self.use("_pkr")
            if imm_form:
                delta = _signed(insn.imm)
                if op_name == "sub":
                    delta = -delta
                self.emit(1, "r%d = _Ptr(%s, r%d.offset + %d)"
                          % (dst, regvar, dst, delta))
                if lk[0] == "s" and lk[1] is not None:
                    setreg(dst, ("s", lk[1] + delta))
                else:
                    setreg(dst, ("p",) if lk[0] == "p" else ("s", None))
            else:
                sx = ("(r%d - %d if r%d >= %d else r%d)"
                      % (src, _TWO64, src, _SIGN_BIT, src))
                sign = "-" if op_name == "sub" else "+"
                self.emit(1, "r%d = _Ptr(%s, r%d.offset %s %s)"
                          % (dst, regvar, dst, sign, sx))
                setreg(dst, ("p",) if lk[0] == "p" else ("s", None))
            return False

        # scalar + pointer → pointer (add only)
        if lk[0] == "i" and rk[0] in ("p", "s"):
            if op_name != "add":
                return self._raise(
                    "%s: scalar %s pointer (%r)" % (name, op_name, insn))
            regvar = "_pkr" if rk[0] == "p" else "_stk"
            if rk[0] == "p":
                self.use("_pkr")
            sx = ("(r%d - %d if r%d >= %d else r%d)"
                  % (dst, _TWO64, dst, _SIGN_BIT, dst))
            self.emit(1, "r%d = _Ptr(%s, r%d.offset + %s)" % (dst, regvar, src, sx))
            setreg(dst, ("p",) if rk[0] == "p" else ("s", None))
            return False

        if lk[0] in ("p", "s") and rk[0] in ("p", "s"):
            return self._raise("%s: pointer-pointer arithmetic (%r)" % (name, insn))

        if lk[0] == "i" and rk[0] == "i":
            self._scalar_alu(op_name, dst, rhs, imm_form, insn)
            setreg(dst, ("i",))
            return False

        # m/g operands: byte-for-byte interpreter port at runtime
        self.report.generic_ops += 1
        self._sync()
        self.emit(1, "r%d = _galu(%r, r%d, %s, %r, %r)"
                  % (dst, op_name, dst, rhs, name, repr(insn)))
        setreg(dst, ("g",))
        return False

    def _scalar_alu(self, op_name, dst, rhs, imm_form, insn) -> None:
        d = "r%d" % dst
        imm = insn.imm & MASK64
        if op_name == "add":
            self.emit(1, "%s = (%s + %s) & %d" % (d, d, rhs, MASK64))
        elif op_name == "sub":
            self.emit(1, "%s = (%s - %s) & %d" % (d, d, rhs, MASK64))
        elif op_name == "mul":
            self.emit(1, "%s = (%s * %s) & %d" % (d, d, rhs, MASK64))
        elif op_name == "div":
            if imm_form:
                self.emit(1, "%s = %s // %d" % (d, d, imm) if imm else "%s = 0" % d)
            else:
                self.emit(1, "%s = %s // %s if %s else 0" % (d, d, rhs, rhs))
        elif op_name == "mod":
            if imm_form:
                if imm:  # mod by zero leaves dst unchanged: emit nothing
                    self.emit(1, "%s = %s %% %d" % (d, d, imm))
            else:
                self.emit(1, "%s = %s %% %s if %s else %s" % (d, d, rhs, rhs, d))
        elif op_name == "and":
            self.emit(1, "%s = %s & %s" % (d, d, rhs))
        elif op_name == "or":
            self.emit(1, "%s = %s | %s" % (d, d, rhs))
        elif op_name == "xor":
            self.emit(1, "%s = %s ^ %s" % (d, d, rhs))
        elif op_name == "lsh":
            if imm_form:
                self.emit(1, "%s = (%s << %d) & %d" % (d, d, imm & 63, MASK64))
            else:
                self.emit(1, "%s = (%s << (%s & 63)) & %d" % (d, d, rhs, MASK64))
        elif op_name == "rsh":
            if imm_form:
                self.emit(1, "%s = %s >> %d" % (d, d, imm & 63))
            else:
                self.emit(1, "%s = %s >> (%s & 63)" % (d, d, rhs))
        else:  # pragma: no cover - exhaustive over ALU ops
            raise JitError("unknown ALU op %s" % op_name)

    # ------------------------------------------------------------- memory

    def _ldx(self, pc, insn, st, setreg) -> bool:
        name = self.program.name
        kind = st.regs[insn.src]
        size = insn.imm
        dst = insn.dst
        if kind[0] == "u":
            return self._uninit(insn.src, insn)
        if kind[0] in ("i", "m"):
            return self._raise(
                "%s@%d: load via non-pointer r%d" % (name, pc, insn.src))
        if kind[0] == "p":
            # The verifier proved this access within the length argument the
            # hook passes (always len(frame)); the packet region never holds
            # spills, so the slice read needs no checks at all.
            self.report.inline_mem_ops += 1
            self.use("_pkd")
            t = self.tmp()
            self.emit(1, "%s = r%d.offset + %d" % (t, insn.src, insn.off))
            self.emit(1, 'r%d = int.from_bytes(_pkd[%s:%s + %d], "big")'
                      % (dst, t, t, size))
            setreg(dst, ("i",))
            return False
        if kind[0] == "s" and kind[1] is not None:
            off = kind[1] + insn.off
            if 0 <= off and off + size <= STACK_SIZE:
                if size < 8:
                    # load_word never consults spills below 8 bytes
                    self.report.inline_mem_ops += 1
                    self.use("_skd")
                    self.emit(1, 'r%d = int.from_bytes(_skd[%d:%d], "big")'
                              % (dst, off, off + size))
                    setreg(dst, ("i",))
                    return False
                spill = st.spill_at(off)
                if spill == "C":
                    self.report.inline_mem_ops += 1
                    self.use("_skd")
                    self.emit(1, 'r%d = int.from_bytes(_skd[%d:%d], "big")'
                              % (dst, off, off + 8))
                    setreg(dst, ("i",))
                    return False
                if isinstance(spill, tuple):
                    # provably spilled on every path: a plain dict lookup
                    self.report.inline_mem_ops += 1
                    self.use("_spd")
                    self.emit(1, "r%d = _spd[%d]" % (dst, off))
                    setreg(dst, spill)
                    return False
                # unknown spill state, bounds still proven: full load_word
                self.report.generic_ops += 1
                self.emit(1, "r%d = _stk.load_word(%d, 8)" % (dst, off))
                setreg(dst, ("g",))
                return False
        # unknown stack offset or generic pointer: interpreter-equivalent
        self.report.generic_ops += 1
        self._sync()
        if kind[0] == "g":
            self.emit(1, "if not isinstance(r%d, _Ptr):" % insn.src)
            self.emit(2, "raise _VMError(%r)"
                      % ("%s@%d: load via non-pointer r%d" % (name, pc, insn.src),))
        self.emit(1, "try:")
        self.emit(2, "r%d = r%d.load(%d, %d)" % (dst, insn.src, insn.off, size))
        self.emit(1, "except _Mem as _e:")
        self.emit(2, 'raise _VMError("%s@%d: " + str(_e)) from _e' % (name, pc))
        setreg(dst, ("g",))
        return False

    def _store(self, pc, insn, st) -> bool:
        name = self.program.name
        is_stx = insn.op is Op.STX
        size = insn.imm if is_stx else insn.src
        dst_kind = st.regs[insn.dst]
        if dst_kind[0] == "u":
            return self._uninit(insn.dst, insn)
        if is_stx:
            val_kind = st.regs[insn.src]
            if val_kind[0] == "u":
                return self._uninit(insn.src, insn)
            val = "r%d" % insn.src
        else:
            val_kind = ("i",)
            val = str(insn.imm)  # ptr.store masks; precomputed where inlined
        if dst_kind[0] in ("i", "m"):
            return self._raise(
                "%s@%d: store via non-pointer r%d" % (name, pc, insn.dst))

        if dst_kind[0] == "p":
            if val_kind[0] in ("p", "s"):
                # spilling a pointer into the packet always aborts
                return self._raise(
                    "%s@%d: pkt: cannot spill pointer here" % (name, pc))
            if val_kind[0] != "i":
                self.report.generic_ops += 1
                self._sync()
                self.emit(1, "try:")
                self.emit(2, "r%d.store(%d, %d, %s)"
                          % (insn.dst, insn.off, size, val))
                self.emit(1, "except _Mem as _e:")
                self.emit(2, 'raise _VMError("%s@%d: " + str(_e)) from _e'
                          % (name, pc))
                return False
            self.report.inline_mem_ops += 1
            self.use("_pkd")
            t = self.tmp()
            self.emit(1, "%s = r%d.offset + %d" % (t, insn.dst, insn.off))
            if is_stx:
                expr = val if size == 8 else "(%s & %d)" % (val, (1 << (8 * size)) - 1)
                self.emit(1, '_pkd[%s:%s + %d] = (%s).to_bytes(%d, "big")'
                          % (t, t, size, expr, size))
            else:
                payload = (insn.imm & ((1 << (8 * size)) - 1)).to_bytes(size, "big")
                self.emit(1, "_pkd[%s:%s + %d] = %r" % (t, t, size, payload))
            return False

        if dst_kind[0] == "s" and dst_kind[1] is not None:
            off = dst_kind[1] + insn.off
            if 0 <= off and off + size <= STACK_SIZE:
                if val_kind[0] == "i":
                    self.report.inline_mem_ops += 1
                    self.use("_skd")
                    if self._needs_invalidate(st, off, size):
                        self.use("_sinv")
                        self.emit(1, "_sinv(%d, %d)" % (off, size))
                    if is_stx:
                        expr = val if size == 8 else "(%s & %d)" % (
                            val, (1 << (8 * size)) - 1)
                        self.emit(1, '_skd[%d:%d] = (%s).to_bytes(%d, "big")'
                                  % (off, off + size, expr, size))
                    else:
                        payload = (insn.imm & ((1 << (8 * size)) - 1)).to_bytes(
                            size, "big")
                        self.emit(1, "_skd[%d:%d] = %r" % (off, off + size, payload))
                    self._spill_clean(st, off, size)
                    return False
                if val_kind[0] in ("p", "s") and size == 8:
                    # a real spill: registers in the shared stack's spill dict
                    self.report.inline_mem_ops += 1
                    self.emit(1, "_stk.store_word(%d, 8, %s)" % (off, val))
                    self._spill_set(st, off, val_kind)
                    return False
                # pointer with wrong size, maps, generics: full store_word
                self.report.generic_ops += 1
                self._sync()
                self.emit(1, "try:")
                self.emit(2, "_stk.store_word(%d, %d, %s)" % (off, size, val))
                self.emit(1, "except _Mem as _e:")
                self.emit(2, 'raise _VMError("%s@%d: " + str(_e)) from _e'
                          % (name, pc))
                self._spill_unknown_at(st, off, size)
                return False
        # unknown stack offset or generic pointer: interpreter-equivalent
        self.report.generic_ops += 1
        self._sync()
        if dst_kind[0] == "g":
            self.emit(1, "if not isinstance(r%d, _Ptr):" % insn.dst)
            self.emit(2, "raise _VMError(%r)"
                      % ("%s@%d: store via non-pointer r%d" % (name, pc, insn.dst),))
        self.emit(1, "try:")
        self.emit(2, "r%d.store(%d, %d, %s)" % (insn.dst, insn.off, size, val))
        self.emit(1, "except _Mem as _e:")
        self.emit(2, 'raise _VMError("%s@%d: " + str(_e)) from _e' % (name, pc))
        # an untracked store may have rewritten any slot's spill state
        st.sp = {}
        st.sp_other = "U"
        return False

    def _needs_invalidate(self, st: _State, off: int, size: int) -> bool:
        if st.sp_other != "C":
            return True
        for o in range(off - 7, off + size):
            if st.sp.get(o, "C") != "C":
                return True
        return False

    def _spill_clean(self, st: _State, off: int, size: int) -> None:
        for o in range(off - 7, off + size):
            if st.sp_other == "C":
                st.sp.pop(o, None)
            else:
                st.sp[o] = "C"

    def _spill_set(self, st: _State, off: int, kind: Tuple) -> None:
        self._spill_clean(st, off, 8)
        st.sp[off] = kind

    def _spill_unknown_at(self, st: _State, off: int, size: int) -> None:
        for o in range(off - 7, off + size):
            st.sp[o] = "U"

    # -------------------------------------------------------------- jumps

    def _jump(self, pc, insn, st, propagate, fall) -> bool:
        name = self.program.name
        op = insn.op
        target = pc + insn.off + 1
        imm_form = op in JMP_IMM_OPS
        tok = _CMP_TOKENS[op]
        lk = st.regs[insn.dst]
        rk = ("i",) if imm_form else st.regs[insn.src]
        if lk[0] == "u":
            return self._uninit(insn.dst, insn)
        if not imm_form and rk[0] == "u":
            return self._uninit(insn.src, insn)
        rhs = str(insn.imm & MASK64) if imm_form else "r%d" % insn.src

        # pointer null checks fold away: live pointers are never null
        if lk[0] in ("p", "s") and imm_form and (insn.imm & MASK64) == 0 \
                and op in (Op.JEQ_IMM, Op.JNE_IMM):
            self.report.folded_null_checks += 1
            if op is Op.JNE_IMM:  # always taken: an unconditional jump
                self._sync()
                self.emit(1, "_g = %d" % target)
                propagate(target, st)
                return True
            # JEQ_IMM 0 never taken: a pure fall-through, zero code
            fall()
            return False

        if lk[0] == "i" and rk[0] == "i":
            self._sync()
            if tok == "set":
                cond = "r%d & %s" % (insn.dst, rhs)
            else:
                cond = "r%d %s %s" % (insn.dst, _CMP_PY[tok], rhs)
            self.emit(1, "if %s:" % cond)
            self.emit(2, "_g = %d" % target)
            propagate(target, st)
            fall()
            return False

        # anything with a pointer or map operand: interpreter-equivalent
        self.report.generic_ops += 1
        self._sync()
        self.emit(1, "if _gcmp(%r, %r, r%d, %s, %r, %r):"
                  % (tok, imm_form, insn.dst, rhs, name, repr(insn)))
        self.emit(2, "_g = %d" % target)
        propagate(target, st)
        fall()
        return False

    # -------------------------------------------------------------- calls

    def _call(self, pc, insn, setreg) -> bool:
        name = self.program.name
        helper_id = insn.imm
        # the clock the helper observes must match the interpreter's exactly
        self._flush()
        entry = helpers_mod.HELPERS.get(helper_id)
        if entry is None:
            # late-registered helpers (redirect_xsk) resolve at runtime,
            # exactly like the interpreter's per-call dict lookup
            self.report.generic_ops += 1
            self.ns["_HELPERS"] = helpers_mod.HELPERS
            e = self.tmp()
            self.emit(1, "%s = _HELPERS.get(%d)" % (e, helper_id))
            self.emit(1, "if %s is None:" % e)
            self.emit(2, "raise _VMError(%r)"
                      % ("%s@%d: unknown helper %d" % (name, pc, helper_id),))
            callee = "%s[1]" % e
        else:
            hname = "_h%d" % helper_id
            self.ns[hname] = entry[1]
            callee = hname
        self.emit(1, "try:")
        self.emit(2, "r0 = %s(env, [r1, r2, r3, r4, r5])" % callee)
        self.emit(1, "except (_HErr, _Mem) as _e:")
        self.emit(2, 'raise _VMError("%s@%d: " + str(_e)) from _e' % (name, pc))
        # helper calls clobber the caller-saved argument registers
        self.emit(1, "r1 = r2 = r3 = r4 = r5 = None")
        setreg(0, ("i",))
        for i in range(1, 6):
            setreg(i, ("u",))
        return False

    def _tail_call(self, pc, insn, st) -> bool:
        name = self.program.name
        limit_msg = "%s@%d: tail call limit exceeded" % (name, pc)
        r2k, r3k = st.regs[2], st.regs[3]
        # the interpreter reads the index (r3) before checking the array
        if r3k[0] == "u":
            return self._uninit(3, insn)
        self._flush()
        t = self.tmp()
        static_array = (
            r2k[0] == "m"
            and r2k[1] is not None
            and isinstance(self.program.maps[r2k[1]], ProgArray)
            and r3k[0] == "i"
        )
        if static_array:
            mname = "_m%d" % r2k[1]
            self.ns[mname] = self.program.maps[r2k[1]]
            self.emit(1, "%s = %s.get_prog(r3)" % (t, mname))
        else:
            self.report.generic_ops += 1
            if r3k[0] != "i":
                self.emit(1, "if r3 is None:")
                self.emit(2, "raise _VMError(%r)"
                          % ("%s: read of uninitialized r3 (%r)" % (name, insn),))
            self.emit(1, "if not isinstance(r2, _PArr):")
            self.emit(2, "raise _VMError(%r)"
                      % ("%s@%d: tail call needs a prog array in r2" % (name, pc),))
            if r3k[0] != "i":
                self.emit(1, "if isinstance(r3, _Ptr):")
                self.emit(2, "raise _VMError(%r)"
                          % ("%s@%d: tail call index is a pointer" % (name, pc),))
            self.emit(1, "%s = r2.get_prog(r3)" % t)
        self.emit(1, "if %s is not None:" % t)
        self.emit(2, "return (1, %s, _n, %r)" % (t, limit_msg))
        # empty slot: fall through to the next instruction, as in real eBPF
        return False


# ------------------------------------------------------ runtime fallbacks

def _galu(op_name, left, right, name, irep):
    """Byte-for-byte port of ``VM._alu`` for generically-typed operands."""
    if isinstance(left, Pointer):
        if isinstance(right, Pointer):
            raise VMError("%s: pointer-pointer arithmetic (%s)" % (name, irep))
        if op_name == "add":
            return left.advanced(_signed(right))
        if op_name == "sub":
            return left.advanced(-_signed(right))
        raise VMError("%s: %s on pointer (%s)" % (name, op_name, irep))
    if isinstance(right, Pointer):
        if op_name == "add":
            return right.advanced(_signed(left))
        raise VMError("%s: scalar %s pointer (%s)" % (name, op_name, irep))
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
    raise VMError("%s: unknown ALU op %s" % (name, op_name))  # pragma: no cover


def _gcmp(tok, imm_form, left, right, name, irep):
    """Byte-for-byte port of ``VM._compare`` for generic operands."""
    if isinstance(left, Pointer) or isinstance(right, Pointer):
        # only null-checks are meaningful on pointers
        if imm_form and tok in ("eq", "ne") and isinstance(right, int) and right == 0:
            return tok == "ne"  # live pointers are never null
        raise VMError("%s: pointer comparison (%s)" % (name, irep))
    if tok == "eq":
        return left == right
    if tok == "ne":
        return left != right
    if tok == "gt":
        return left > right
    if tok == "ge":
        return left >= right
    if tok == "lt":
        return left < right
    if tok == "le":
        return left <= right
    if tok == "set":
        return bool(left & right)
    raise VMError("%s: unknown jump %s" % (name, tok))  # pragma: no cover


# -------------------------------------------------------------- interface

def compile_program(program: Program) -> Tuple[Optional[CompiledUnit], JitReport]:
    """Verify and compile ``program``; fail-closed.

    Returns ``(unit, report)``; on any analysis or codegen failure the
    unit is ``None`` and ``report.status == "fallback"`` — the caller
    keeps interpreting, nothing is ever half-compiled.
    """
    try:
        return _Compiler(program).compile()
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
