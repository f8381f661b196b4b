"""Bytecode → Python translation for verified FPM programs.

The translator is a per-instruction emitter over the verifier's facts
(:class:`~repro.ebpf.analysis.interp.Analysis`, read through the
fault-free :func:`~repro.ebpf.verifier.analyze`, so it is the program's one
analysis). It keeps no abstract state of its own. An instruction the
verifier never reached emits nothing; every other one gets the typed form
its operand kinds select, each kind joined over every path that reaches
it:

``scalar``   a 64-bit scalar (a plain masked Python int at runtime)
``packet``   a packet pointer (a plain int: its offset into the frame)
``stack``    a stack pointer (a plain int: its offset into the 512-byte
             frame), with its byte offset when every path agrees on one
             constant (minic derives stack addresses from r10 with
             constant immediates, so in practice it always does)
``map``      a map object materialized by ``LD_MAP``
``mixed``    paths disagree: there is no typed form, so the translator
             raises :class:`JitError` and the interpreter serves the program

Pointers are integer offsets because the kind of every operand is known
statically: r1 starts at 0 (the engine's ABI guard requires a base packet
pointer), r10 is 512, and pointer arithmetic is integer arithmetic. A real
:class:`Pointer` is built only where a helper reads one as an argument
(the call's argument kinds are a verifier fact too), or where a pointer is
spilled into a slot the frame's ``Region`` holds.

minic spills everything through the stack, including the packet pointer
parameter, so the stack's storage is what makes the output fast. Each
stack byte gets one of two storage classes, chosen from the same facts:

- a **Python local** (``s504``, …) holds an 8-byte slot when every reached
  access that overlaps it is an 8-byte access at exactly its constant
  offset, and no helper's pointer argument covers any of its bytes. A
  spill or fill of such a slot is a plain assignment, whatever the value's
  kind. Locals start at 0, as the bytes of a fresh frame do;
- every other byte stays in a zeroed ``Region``, with the interpreter's
  spill bookkeeping: scalars as big-endian bytes, a spilled pointer in
  ``_spilled``, and a scalar store calling the invalidation only where an
  overlapping slot may hold a spilled pointer. The ``bpf_fib_lookup`` out
  buffer at r10−128 is one such range. A program with no such byte
  allocates no ``Region``.

Every program in a tail-call chain runs on a fresh zeroed frame, as in the
kernel and in the verifier's model of each program, so a tail call hands
nothing over but the entry arguments and the counters: locals need no
write-back, and a chain that continues in the interpreter (a tail target
the JIT declined) starts that program on its own fresh frame too.

Instruction counts are batched into ``_n`` and their cost is charged,
``charge_ns((_n - _c) * insn_cost)``, before every helper call, because
helpers read the clock (neighbor reachability, conntrack expiry), and
when the unit returns at a tail call, exit or abort. The interpreter
counts an instruction *before* executing it, so the generated code syncs
``_n`` ahead of every statement that can raise, and an aborted run
charges what the interpreter charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NoReturn, Optional, Set, Tuple

from repro.ebpf import helpers as helpers_mod
from repro.ebpf.analysis.domain import PTR_TO_PACKET, PTR_TO_STACK
from repro.ebpf.analysis.errors import VerifierError
from repro.ebpf.analysis.interp import MIXED_OPERAND, SCALAR_OPERAND, Analysis
from repro.ebpf.isa import ALU_IMM_OPS, ALU_REG_OPS, JMP_IMM_OPS, JMP_REG_OPS, MASK64, Insn, Op
from repro.ebpf.memory import MemoryError_, Pointer, Region
from repro.ebpf.program import Program
from repro.ebpf.verifier import analyze
from repro.ebpf.vm import STACK_SIZE, VMError

__all__ = ["CompiledUnit", "JitError", "JitReport", "compile_program"]

_SIGN_BIT = 1 << 63
_TWO64 = 1 << 64

#: The generated code's region variable for each pointer kind, which a
#: materialized :class:`Pointer` refers to.
_REGION = {PTR_TO_PACKET: "_pkr", PTR_TO_STACK: "_stk"}

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
    inline_mem_ops: int = 0  # packet/stack accesses emitted with no checks
    stack_locals: int = 0  # 8-byte stack slots held in Python locals


@dataclass
class CompiledUnit:
    """One program's compiled executor.

    ``fn(env, args, charge_ns, insn_cost)`` runs the program on a fresh
    frame for the hook ABI ``args`` and returns a 4-tuple
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


def _plus(expr: str, delta: int) -> str:
    """``expr + delta`` as generated source; an empty ``expr`` is 0."""
    if not expr:
        return str(delta)
    if delta == 0:
        return expr
    return "%s %s %d" % (expr, "-" if delta < 0 else "+", abs(delta))


def _load_expr(buf: str, base: str, off: int, size: int) -> str:
    """A big-endian ``size``-byte read of ``buf`` at ``base + off`` (``base``
    is a register, or empty for a constant offset)."""
    if size == 1:
        return "%s[%s]" % (buf, _plus(base, off))
    return 'int.from_bytes(%s[%s:%s], "big")' % (buf, _plus(base, off), _plus(base, off + size))


def _store_stmt(buf: str, base: str, off: int, size: int, value: str) -> str:
    """A big-endian ``size``-byte write of the in-range int ``value``."""
    if size == 1:
        return "%s[%s] = %s" % (buf, _plus(base, off), value)
    return '%s[%s:%s] = (%s).to_bytes(%d, "big")' % (
        buf, _plus(base, off), _plus(base, off + size), value, size
    )


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
        self.facts = Analysis()
        self.locals: Set[int] = set()  # frame offsets of the slots held in locals

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
        flush."""
        self._sync()
        self.emit(1, "_chg((_n - _c) * _ci)")
        self.emit(1, "_c = _n")

    def _untyped(self, pc: int, insn: Insn) -> NoReturn:
        """No typed form for these operands: decline the whole program."""
        kinds = self.facts.operands.get(pc, self.facts.call_args.get(pc))
        raise JitError(
            "%s@pc %d: no typed form for %r (operand kinds %s)" % (self.program.name, pc, insn, kinds)
        )

    # ------------------------------------------------------------ pipeline

    def compile(self) -> Tuple[CompiledUnit, JitReport]:
        program = self.program
        # The deployer's proof, read without verify()'s fault site: a
        # compile must not trip armed chaos faults.
        try:
            self.facts = analyze(program)
        except VerifierError as exc:
            raise JitError("verification failed: %s" % (exc,)) from exc

        self.locals = self._stack_locals()
        self.report.stack_locals = len(self.locals)
        leaders = self._leaders()
        self._translate(leaders)
        source = self._assemble()
        self.report.blocks = len(leaders)
        namespace = dict(self.ns)
        namespace.update(
            _Ptr=Pointer,
            _Region=Region,
            _VMError=VMError,
            _Mem=MemoryError_,
            _HErr=helpers_mod.HelperError,
            _Halt=_JitHalt,
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

    def _leaders(self) -> List[int]:
        leaders = {0}
        for pc, insn in enumerate(self.insns):
            if insn.op is Op.JA or insn.op in JMP_IMM_OPS or insn.op in JMP_REG_OPS:
                leaders.add(pc + insn.off + 1)
                leaders.add(pc + 1)
        return sorted(pc for pc in leaders if pc < len(self.insns))

    def _assemble(self) -> str:
        used = self.used
        prologue = [
            "def _fpm(env, _a, _chg, _ci):",
            "    r1 = 0; r2 = _a[1]; r3 = _a[2]",
            "    r0 = r4 = r5 = r6 = r7 = r8 = r9 = None",
            "    r10 = %d" % STACK_SIZE,
        ]
        if self.locals:
            names = " = ".join("s%d" % off for off in sorted(self.locals, reverse=True))
            prologue.append("    %s = 0" % names)
        if used.get("_pkr") or used.get("_pkd"):
            prologue.append("    _pkr = _a[0].region")
        if used.get("_pkd"):
            prologue.append("    _pkd = _pkr.data")
        if any(used.get(name) for name in ("_stk", "_skd", "_spd", "_sinv")):
            # the frame's Region, for the bytes no local holds
            prologue.append('    _stk = _Region("stack", bytearray(%d), True)' % STACK_SIZE)
        if used.get("_skd"):
            prologue.append("    _skd = _stk.data")
        if used.get("_spd"):
            prologue.append("    _spd = _stk._spilled")
        if used.get("_sinv"):
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
        visited = self.facts.visited
        for pc, insn in enumerate(self.insns):
            if pc in leader_set:
                self._sync()
                if pc in visited:
                    self.emit(0, "if _g <= %d:" % pc)
            if pc in visited:
                self.pend += 1
                self._insn(pc, insn)
        self._sync()

    def _insn(self, pc: int, insn: Insn) -> None:
        op = insn.op
        if op is Op.MOV_IMM:
            self.emit(1, "r%d = %d" % (insn.dst, insn.imm & MASK64))
        elif op is Op.MOV_REG:
            self.emit(1, "r%d = r%d" % (insn.dst, insn.src))
        elif op is Op.LD_MAP:
            mname = "_m%d" % insn.imm
            self.ns[mname] = self.program.maps[insn.imm]
            self.emit(1, "r%d = %s" % (insn.dst, mname))
        elif op is Op.NEG:  # the verifier admits NEG on scalars only
            self.emit(1, "r%d = (-r%d) & %d" % (insn.dst, insn.dst, MASK64))
        elif op in ALU_IMM_OPS or op in ALU_REG_OPS:
            self._alu(pc, insn)
        elif op is Op.LDX:
            self._ldx(pc, insn)
        elif op is Op.STX or op is Op.ST_IMM:
            self._store(pc, insn)
        elif op is Op.JA:
            self._sync()
            self.emit(1, "_g = %d" % (pc + insn.off + 1))
        elif op in JMP_IMM_OPS or op in JMP_REG_OPS:
            self._jump(pc, insn)
        elif op is Op.CALL:
            self._call(pc, insn)
        elif op is Op.TAIL_CALL:
            self._tail_call(pc, insn)
        elif op is Op.EXIT:  # the verifier proved r0 a scalar here
            self._flush()
            self.emit(1, "return (0, r0, _n, None)")
        else:
            raise JitError("unhandled op %s at pc %d" % (op, pc))

    # ------------------------------------------------------------- ALU ops

    def _alu(self, pc: int, insn: Insn) -> None:
        imm_form = insn.op in ALU_IMM_OPS
        op_name = insn.op.value[:-4]
        dst, src = insn.dst, insn.src
        lk, rk = self.facts.operands[pc]
        if imm_form:
            rk = SCALAR_OPERAND
        rhs = str(insn.imm & MASK64) if imm_form else "r%d" % src

        if lk == rk == SCALAR_OPERAND:
            self._scalar_alu(op_name, dst, rhs, imm_form, insn)
        elif lk[0] in _REGION and rk == SCALAR_OPERAND:
            # pointer ± scalar, on the offset (the verifier admits add and sub only)
            if imm_form:
                delta = _signed(insn.imm)
                self.emit(1, "r%d = %s" % (dst, _plus("r%d" % dst, -delta if op_name == "sub" else delta)))
            else:
                sx = "(r%d - %d if r%d >= %d else r%d)" % (src, _TWO64, src, _SIGN_BIT, src)
                sign = "-" if op_name == "sub" else "+"
                self.emit(1, "r%d = r%d %s %s" % (dst, dst, sign, sx))
        elif lk == SCALAR_OPERAND and rk[0] in _REGION:
            # scalar + pointer → pointer (the verifier admits add only)
            sx = "(r%d - %d if r%d >= %d else r%d)" % (dst, _TWO64, dst, _SIGN_BIT, dst)
            self.emit(1, "r%d = r%d + %s" % (dst, src, sx))
        else:
            self._untyped(pc, insn)

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
    #
    # The verifier proved every access below in bounds: packet accesses
    # within the length argument the hook passes (always len(frame), which
    # the engine's ABI guard checks), stack accesses inside the frame. The
    # packet region never holds spills, so its slices need no checks at all.

    def _ldx(self, pc: int, insn: Insn) -> None:
        kind, base = self.facts.operands[pc][1]
        size = insn.imm
        dst = insn.dst
        if kind == PTR_TO_PACKET:
            self.report.inline_mem_ops += 1
            self.use("_pkd")
            self.emit(1, "r%d = %s" % (dst, _load_expr("_pkd", "r%d" % insn.src, insn.off, size)))
            return
        if kind != PTR_TO_STACK or base is None:
            self._untyped(pc, insn)
        off = base + insn.off
        # load_word never consults spills below 8 bytes
        fill = self.facts.fills[pc] if size == 8 else SCALAR_OPERAND
        if fill != SCALAR_OPERAND and fill[0] not in _REGION:
            self._untyped(pc, insn)
        self.report.inline_mem_ops += 1
        if off in self.locals:
            self.emit(1, "r%d = s%d" % (dst, off))
        elif fill == SCALAR_OPERAND:
            self.use("_skd")
            self.emit(1, "r%d = %s" % (dst, _load_expr("_skd", "", off, size)))
        else:
            # a pointer spilled into the Region on every path
            self.use("_spd")
            self.emit(1, "r%d = _spd[%d].offset" % (dst, off))

    def _store(self, pc: int, insn: Insn) -> None:
        is_stx = insn.op is Op.STX
        size = insn.imm if is_stx else insn.src
        (kind, base), val_kind = self.facts.operands[pc]
        mask = (1 << (8 * size)) - 1
        if is_stx:  # the scalar's bytes, when it is one
            val = "r%d" % insn.src
            data = val if size == 8 else "(%s & %d)" % (val, mask)
        else:
            val_kind = SCALAR_OPERAND
            val = data = str(insn.imm & mask)

        if kind == PTR_TO_PACKET and val_kind == SCALAR_OPERAND:
            self.report.inline_mem_ops += 1
            self.use("_pkd")
            self.emit(1, _store_stmt("_pkd", "r%d" % insn.dst, insn.off, size, data))
            return
        if kind != PTR_TO_STACK or base is None:
            self._untyped(pc, insn)
        if val_kind != SCALAR_OPERAND and val_kind[0] not in _REGION:
            self._untyped(pc, insn)
        off = base + insn.off
        self.report.inline_mem_ops += 1
        if off in self.locals:
            # any kind: a pointer's local holds its offset
            self.emit(1, "s%d = %s" % (off, val))
        elif val_kind == SCALAR_OPERAND:
            self.use("_skd")
            if pc in self.facts.spill_clobbers:
                self.use("_sinv")
                self.emit(1, "_sinv(%d, %d)" % (off, size))
            self.emit(1, _store_stmt("_skd", "", off, size, data))
        else:
            # a real 8-byte spill into the Region's spill bookkeeping
            regvar = _REGION[val_kind[0]]
            self.use(regvar)
            self.emit(1, "_stk.store_word(%d, 8, _Ptr(%s, %s))" % (off, regvar, val))

    # -------------------------------------------------------------- jumps

    def _jump(self, pc: int, insn: Insn) -> None:
        lk, rk = self.facts.operands[pc]
        imm_form = insn.op in JMP_IMM_OPS
        if imm_form:
            rk = SCALAR_OPERAND
        if not lk == rk == SCALAR_OPERAND:
            self._untyped(pc, insn)  # pointer null checks included
        tok = _CMP_TOKENS[insn.op]
        rhs = str(insn.imm & MASK64) if imm_form else "r%d" % insn.src
        self._sync()
        if tok == "set":
            cond = "r%d & %s" % (insn.dst, rhs)
        else:
            cond = "r%d %s %s" % (insn.dst, _CMP_PY[tok], rhs)
        self.emit(1, "if %s:" % cond)
        self.emit(2, "_g = %d" % (pc + insn.off + 1))

    # -------------------------------------------------------------- calls

    def _call(self, pc: int, insn: Insn) -> None:
        helper_id = insn.imm
        # Each argument the signature declares goes over as the interpreter
        # passes it, a pointer as a real Pointer; the helper reads no other.
        sig = helpers_mod.HELPER_SIGS[helper_id]
        args = []
        for index, kind in enumerate(self.facts.call_args[pc]):
            reg = "r%d" % (index + 1)
            if index < len(sig.args):
                if kind == MIXED_OPERAND:
                    self._untyped(pc, insn)
                if kind is not None and kind[0] in _REGION:
                    self.use(_REGION[kind[0]])
                    reg = "_Ptr(%s, %s)" % (_REGION[kind[0]], reg)
            args.append(reg)
        # helpers read the clock
        self._flush()
        hname = "_h%d" % helper_id
        self.ns[hname] = helpers_mod.HELPERS[helper_id][1]
        self.emit(1, "try:")
        self.emit(2, "r0 = %s(env, [%s])" % (hname, ", ".join(args)))
        self.emit(1, "except (_HErr, _Mem) as _e:")
        self.emit(2, 'raise _VMError("%s@%d: " + str(_e)) from _e' % (self.program.name, pc))
        # helper calls clobber the caller-saved argument registers
        self.emit(1, "r1 = r2 = r3 = r4 = r5 = None")

    def _tail_call(self, pc: int, insn: Insn) -> None:
        # the verifier proved r2 a prog array and r3 a scalar on every path
        limit_msg = "%s@%d: tail call limit exceeded" % (self.program.name, pc)
        self._flush()
        t = self.tmp()
        self.emit(1, "%s = r2.get_prog(r3)" % t)
        self.emit(1, "if %s is not None:" % t)
        self.emit(2, "return (1, %s, _n, %r)" % (t, limit_msg))
        # empty slot: fall through to the next instruction, as in real eBPF


# -------------------------------------------------------------- interface

def compile_program(program: Program) -> Tuple[Optional[CompiledUnit], JitReport]:
    """Compile ``program`` from its verifier facts; fail-closed.

    Returns ``(unit, report)``; when the program does not verify, when an
    operand has no typed form, or on any codegen failure, the unit is
    ``None`` and ``report.status == "fallback"`` — the caller keeps
    interpreting, nothing is ever half-compiled.
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
