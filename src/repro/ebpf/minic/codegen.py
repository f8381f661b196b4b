"""minic code generation.

A deliberately simple, obviously-correct lowering: expression results live
in R6 with intermediates spilled to stack temp slots (R6–R9 survive helper
calls; R1–R5 do not). Static functions are inlined at their call sites —
the cheap "function call" FPM chaining of Fig 10 — while ``tail_call``
lowers to the TAIL_CALL instruction whose per-call cost the same figure
measures.

Big-endian accessors ``ldN``/``stN`` lower to sized LDX/STX (48-bit MAC
accessors compose 16+32-bit halves). All named kernel helpers lower to CALL
with their registry id.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ebpf import helpers as helpers_mod
from repro.ebpf.minic.dce import eliminate_unreachable
from repro.ebpf.isa import Insn, Op
from repro.testing import faults
from repro.ebpf.maps import BpfMap
from repro.ebpf.minic import ast_nodes as ast
from repro.ebpf.minic.parser import parse
from repro.ebpf.program import Program
from repro.ebpf.vm import STACK_SIZE

WORK = 6  # primary working register (callee-preserved)
AUX = 7  # secondary working register
AUX2 = 8
FP = 10

NUM_TEMPS = 20

LOAD_BUILTINS = {"ld8": 1, "ld16": 2, "ld32": 4, "ld64": 8}
STORE_BUILTINS = {"st8": 1, "st16": 2, "st32": 4, "st64": 8}

CMP_OPS = {
    "==": Op.JEQ_REG,
    "!=": Op.JNE_REG,
    "<": Op.JLT_REG,
    "<=": Op.JLE_REG,
    ">": Op.JGT_REG,
    ">=": Op.JGE_REG,
}

ARITH_OPS = {
    "+": Op.ADD_REG,
    "-": Op.SUB_REG,
    "*": Op.MUL_REG,
    "/": Op.DIV_REG,
    "%": Op.MOD_REG,
    "&": Op.AND_REG,
    "|": Op.OR_REG,
    "^": Op.XOR_REG,
    "<<": Op.LSH_REG,
    ">>": Op.RSH_REG,
}

ARITH_IMM_OPS = {
    "+": Op.ADD_IMM,
    "-": Op.SUB_IMM,
    "*": Op.MUL_IMM,
    "/": Op.DIV_IMM,
    "%": Op.MOD_IMM,
    "&": Op.AND_IMM,
    "|": Op.OR_IMM,
    "^": Op.XOR_IMM,
    "<<": Op.LSH_IMM,
    ">>": Op.RSH_IMM,
}

CMP_IMM_OPS = {
    "==": Op.JEQ_IMM,
    "!=": Op.JNE_IMM,
    "<": Op.JLT_IMM,
    "<=": Op.JLE_IMM,
    ">": Op.JGT_IMM,
    ">=": Op.JGE_IMM,
}


class CodegenError(Exception):
    """Source is valid minic but cannot be lowered."""


class _Scope:
    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.vars: Dict[str, tuple] = {}  # name -> (offset, is_array)

    def define(self, name: str, offset: int, is_array: bool) -> None:
        if name in self.vars:
            raise CodegenError(f"redefinition of {name!r}")
        self.vars[name] = (offset, is_array)

    def resolve(self, name: str) -> Optional[tuple]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        return None


class _InlineFrame:
    def __init__(self, ret_slot: int) -> None:
        self.ret_slot = ret_slot
        self.ret_jumps: List[int] = []


class Codegen:
    def __init__(self, unit: ast.Unit, maps: Dict[str, BpfMap]) -> None:
        self.unit = unit
        self.insns: List[Insn] = []
        self.map_order: List[BpfMap] = []
        self.map_index: Dict[str, int] = {}
        for decl in unit.maps:
            if decl.name not in maps:
                raise CodegenError(f"extern map {decl.name!r} not provided to the compiler")
            self.map_index[decl.name] = len(self.map_order)
            self.map_order.append(maps[decl.name])
        self.sp = 0  # grows downward; offsets are negative from FP
        self.scope = _Scope()
        self.temps: List[int] = []
        self.temp_depth = 0
        self.inline_stack: List[str] = []
        self.inline_frames: List[_InlineFrame] = []

    # ------------------------------------------------------------ utilities

    def emit(self, insn: Insn) -> int:
        self.insns.append(insn)
        return len(self.insns) - 1

    def here(self) -> int:
        return len(self.insns)

    def patch_jump(self, index: int, target: Optional[int] = None) -> None:
        """Point the jump at ``index`` to ``target`` (default: next insn)."""
        target = self.here() if target is None else target
        off = target - index - 1
        if off < 0:
            raise CodegenError("backward jump generated (loops are not supported)")
        self.insns[index].off = off

    def alloc(self, size_bytes: int) -> int:
        size_bytes = (size_bytes + 7) & ~7
        self.sp -= size_bytes
        if -self.sp > STACK_SIZE:
            raise CodegenError(f"stack frame exceeds {STACK_SIZE} bytes")
        return self.sp

    def temp_slot(self, depth: int) -> int:
        while len(self.temps) <= depth:
            self.temps.append(self.alloc(8))
        return self.temps[depth]

    def push_work(self) -> int:
        """Spill R6 to the next temp slot; returns the slot offset."""
        slot = self.temp_slot(self.temp_depth)
        self.temp_depth += 1
        self.emit(Insn(Op.STX, dst=FP, src=WORK, off=slot, imm=8))
        return slot

    def pop_to(self, reg: int) -> None:
        self.temp_depth -= 1
        slot = self.temps[self.temp_depth]
        self.emit(Insn(Op.LDX, dst=reg, src=FP, off=slot, imm=8))

    # ------------------------------------------------------------ statements

    def gen_main(self, hook_args: int = 3) -> None:
        main = self.unit.func("main")
        if len(main.params) > hook_args:
            raise CodegenError(f"main() takes at most {hook_args} parameters (pkt, len, ifindex)")
        for i, param in enumerate(main.params):
            slot = self.alloc(8)
            self.scope.define(param.name, slot, is_array=False)
            self.emit(Insn(Op.STX, dst=FP, src=1 + i, off=slot, imm=8, comment=f"param {param.name}"))
        self.gen_body(main.body)
        # implicit return 0 (programs should return explicitly; the verifier
        # requires the final EXIT regardless)
        self.emit(Insn(Op.MOV_IMM, dst=0, imm=0))
        self.emit(Insn(Op.EXIT))

    def gen_body(self, body: List[ast.Stmt]) -> None:
        self.scope = _Scope(self.scope)
        for stmt in body:
            self.gen_stmt(stmt)
        self.scope = self.scope.parent

    def gen_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            if stmt.array_size is not None:
                if stmt.init is not None:
                    raise CodegenError(f"array {stmt.name!r} cannot have an initializer")
                offset = self.alloc(8 * stmt.array_size)
                self.scope.define(stmt.name, offset, is_array=True)
                return
            slot = self.alloc(8)
            self.scope.define(stmt.name, slot, is_array=False)
            if stmt.init is not None:
                self.gen_expr(stmt.init)
                self.emit(Insn(Op.STX, dst=FP, src=WORK, off=slot, imm=8, comment=f"{stmt.name} ="))
            return
        if isinstance(stmt, ast.Assign):
            info = self.scope.resolve(stmt.name)
            if info is None:
                raise CodegenError(f"assignment to undefined variable {stmt.name!r}")
            offset, is_array = info
            if is_array:
                raise CodegenError(f"cannot assign to array {stmt.name!r}")
            self.gen_expr(stmt.value)
            self.emit(Insn(Op.STX, dst=FP, src=WORK, off=offset, imm=8, comment=f"{stmt.name} ="))
            return
        if isinstance(stmt, ast.If):
            jump_false = self.gen_branch_if_false(stmt.cond)
            self.gen_body(stmt.then_body)
            if stmt.else_body:
                jump_end = self.emit(Insn(Op.JA, comment="skip else"))
                self.patch_jump(jump_false)
                self.gen_body(stmt.else_body)
                self.patch_jump(jump_end)
            else:
                self.patch_jump(jump_false)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.gen_expr(stmt.value)
            else:
                self.emit(Insn(Op.MOV_IMM, dst=WORK, imm=0))
            if self.inline_frames:
                frame = self.inline_frames[-1]
                self.emit(Insn(Op.STX, dst=FP, src=WORK, off=frame.ret_slot, imm=8, comment="inline ret"))
                frame.ret_jumps.append(self.emit(Insn(Op.JA, comment="inline return")))
            else:
                self.emit(Insn(Op.MOV_REG, dst=0, src=WORK))
                self.emit(Insn(Op.EXIT))
            return
        if isinstance(stmt, ast.ExprStmt):
            self.gen_expr(stmt.expr)
            return
        raise CodegenError(f"unsupported statement {stmt!r}")  # pragma: no cover

    INVERTED_CMP_IMM = {
        "==": Op.JNE_IMM,
        "!=": Op.JEQ_IMM,
        "<": Op.JGE_IMM,
        "<=": Op.JGT_IMM,
        ">": Op.JLE_IMM,
        ">=": Op.JLT_IMM,
    }
    INVERTED_CMP_REG = {
        "==": Op.JNE_REG,
        "!=": Op.JEQ_REG,
        "<": Op.JGE_REG,
        "<=": Op.JGT_REG,
        ">": Op.JLE_REG,
        ">=": Op.JLT_REG,
    }

    def gen_branch_if_false(self, cond: ast.Expr) -> int:
        """Emit a fused compare-and-branch when the condition is a comparison;
        returns the index of the jump-if-false instruction to patch."""
        if isinstance(cond, ast.Binary) and cond.op in self.INVERTED_CMP_IMM:
            if isinstance(cond.right, ast.Num):
                self.gen_expr(cond.left)
                return self.emit(
                    Insn(self.INVERTED_CMP_IMM[cond.op], dst=WORK, imm=cond.right.value, comment="if-false")
                )
            self.gen_expr(cond.left)
            self.push_work()
            self.gen_expr(cond.right)
            self.pop_to(AUX)
            return self.emit(Insn(self.INVERTED_CMP_REG[cond.op], dst=AUX, src=WORK, comment="if-false"))
        self.gen_expr(cond)
        return self.emit(Insn(Op.JEQ_IMM, dst=WORK, imm=0, comment="if-false"))

    # ----------------------------------------------------------- expressions

    def gen_expr(self, expr: ast.Expr) -> None:
        """Generate code leaving the expression value in R6."""
        if isinstance(expr, ast.Num):
            self.emit(Insn(Op.MOV_IMM, dst=WORK, imm=expr.value))
            return
        if isinstance(expr, ast.Var):
            info = self.scope.resolve(expr.name)
            if info is None:
                raise CodegenError(f"undefined variable {expr.name!r}")
            offset, is_array = info
            if is_array:
                self.emit(Insn(Op.MOV_REG, dst=WORK, src=FP))
                self.emit(Insn(Op.ADD_IMM, dst=WORK, imm=offset, comment=f"&{expr.name}"))
            else:
                self.emit(Insn(Op.LDX, dst=WORK, src=FP, off=offset, imm=8, comment=expr.name))
            return
        if isinstance(expr, ast.AddrOf):
            info = self.scope.resolve(expr.name)
            if info is None:
                raise CodegenError(f"&{expr.name}: undefined variable")
            offset, __ = info
            self.emit(Insn(Op.MOV_REG, dst=WORK, src=FP))
            self.emit(Insn(Op.ADD_IMM, dst=WORK, imm=offset, comment=f"&{expr.name}"))
            return
        if isinstance(expr, ast.Unary):
            self.gen_expr(expr.operand)
            if expr.op == "-":
                self.emit(Insn(Op.NEG, dst=WORK))
            elif expr.op == "~":
                self.emit(Insn(Op.XOR_IMM, dst=WORK, imm=(1 << 64) - 1))
            elif expr.op == "!":
                jump = self.emit(Insn(Op.JEQ_IMM, dst=WORK, imm=0, off=2))
                self.emit(Insn(Op.MOV_IMM, dst=WORK, imm=0))
                self.emit(Insn(Op.JA, off=1))
                self.emit(Insn(Op.MOV_IMM, dst=WORK, imm=1))
                del jump
            else:  # pragma: no cover
                raise CodegenError(f"unsupported unary {expr.op!r}")
            return
        if isinstance(expr, ast.Binary):
            if expr.op in ("&&", "||"):
                self.gen_shortcircuit(expr)
                return
            # constant right operand: use immediate forms, no spill
            if isinstance(expr.right, ast.Num):
                self.gen_expr(expr.left)
                imm = expr.right.value
                if expr.op in ARITH_IMM_OPS:
                    self.emit(Insn(ARITH_IMM_OPS[expr.op], dst=WORK, imm=imm))
                    return
                if expr.op in CMP_IMM_OPS:
                    self.emit(Insn(CMP_IMM_OPS[expr.op], dst=WORK, imm=imm, off=2))
                    self.emit(Insn(Op.MOV_IMM, dst=WORK, imm=0))
                    self.emit(Insn(Op.JA, off=1))
                    self.emit(Insn(Op.MOV_IMM, dst=WORK, imm=1))
                    return
            self.gen_expr(expr.left)
            self.push_work()
            self.gen_expr(expr.right)
            self.pop_to(AUX)  # left in AUX, right in WORK
            if expr.op in ARITH_OPS:
                self.emit(Insn(ARITH_OPS[expr.op], dst=AUX, src=WORK))
                self.emit(Insn(Op.MOV_REG, dst=WORK, src=AUX))
            elif expr.op in CMP_OPS:
                self.emit(Insn(CMP_OPS[expr.op], dst=AUX, src=WORK, off=2))
                self.emit(Insn(Op.MOV_IMM, dst=WORK, imm=0))
                self.emit(Insn(Op.JA, off=1))
                self.emit(Insn(Op.MOV_IMM, dst=WORK, imm=1))
            else:  # pragma: no cover
                raise CodegenError(f"unsupported operator {expr.op!r}")
            return
        if isinstance(expr, ast.Call):
            self.gen_call(expr)
            return
        raise CodegenError(f"unsupported expression {expr!r}")  # pragma: no cover

    def gen_shortcircuit(self, expr: ast.Binary) -> None:
        self.gen_expr(expr.left)
        if expr.op == "&&":
            jump_short = self.emit(Insn(Op.JEQ_IMM, dst=WORK, imm=0, comment="&& short"))
            self.gen_expr(expr.right)
            jump_rhs = self.emit(Insn(Op.JEQ_IMM, dst=WORK, imm=0, comment="&& rhs false"))
            self.emit(Insn(Op.MOV_IMM, dst=WORK, imm=1))
            jump_end = self.emit(Insn(Op.JA))
            self.patch_jump(jump_short)
            self.patch_jump(jump_rhs, self.here())
            self.emit(Insn(Op.MOV_IMM, dst=WORK, imm=0))
            self.patch_jump(jump_end)
        else:  # ||
            jump_short = self.emit(Insn(Op.JNE_IMM, dst=WORK, imm=0, comment="|| short"))
            self.gen_expr(expr.right)
            jump_rhs = self.emit(Insn(Op.JNE_IMM, dst=WORK, imm=0, comment="|| rhs true"))
            self.emit(Insn(Op.MOV_IMM, dst=WORK, imm=0))
            jump_end = self.emit(Insn(Op.JA))
            self.patch_jump(jump_short)
            self.patch_jump(jump_rhs, self.here())
            self.emit(Insn(Op.MOV_IMM, dst=WORK, imm=1))
            self.patch_jump(jump_end)

    # ----------------------------------------------------------------- calls

    def gen_call(self, call: ast.Call) -> None:
        name = call.name

        if name in LOAD_BUILTINS or name == "ld48":
            self.gen_load_builtin(call)
            return
        if name in STORE_BUILTINS or name == "st48":
            self.gen_store_builtin(call)
            return
        if name == "tail_call":
            self.gen_tail_call(call)
            return
        if name in helpers_mod.HELPER_IDS:
            self.gen_helper_call(name, call.args)
            return
        user = self.unit.func(name)
        if user is not None:
            self.gen_inline_call(user, call.args)
            return
        raise CodegenError(f"unknown function {name!r}")

    def gen_helper_call(self, name: str, args: List[ast.Expr]) -> None:
        if len(args) > 5:
            raise CodegenError(f"{name}: helpers take at most 5 arguments")
        slots = []
        for arg in args:
            if isinstance(arg, ast.Var) and arg.name in self.map_index:
                # map reference argument: loaded right before the call
                slots.append(("map", self.map_index[arg.name]))
                continue
            if isinstance(arg, ast.Num):
                slots.append(("imm", arg.value))
                continue
            if isinstance(arg, ast.Var):
                info = self.scope.resolve(arg.name)
                if info is not None and not info[1]:
                    slots.append(("var", info[0]))  # plain local: load directly
                    continue
            self.gen_expr(arg)
            slots.append(("slot", self.push_work()))
        for i, (kind, value) in enumerate(slots):
            if kind == "map":
                self.emit(Insn(Op.LD_MAP, dst=1 + i, imm=value))
            elif kind == "imm":
                self.emit(Insn(Op.MOV_IMM, dst=1 + i, imm=value))
            else:  # "slot" or "var": both are frame offsets
                self.emit(Insn(Op.LDX, dst=1 + i, src=FP, off=value, imm=8))
        self.temp_depth -= sum(1 for kind, __ in slots if kind == "slot")
        self.emit(Insn(Op.CALL, imm=helpers_mod.HELPER_IDS[name], comment=name))
        self.emit(Insn(Op.MOV_REG, dst=WORK, src=0))

    def gen_tail_call(self, call: ast.Call) -> None:
        if len(call.args) != 3:
            raise CodegenError("tail_call(ctx, prog_array, index)")
        ctx_expr, map_expr, index_expr = call.args
        if not isinstance(map_expr, ast.Var) or map_expr.name not in self.map_index:
            raise CodegenError("tail_call: second argument must be an extern map")
        self.gen_expr(ctx_expr)
        ctx_slot = self.push_work()
        self.gen_expr(index_expr)
        index_slot = self.push_work()
        self.emit(Insn(Op.LDX, dst=1, src=FP, off=ctx_slot, imm=8))
        self.emit(Insn(Op.LD_MAP, dst=2, imm=self.map_index[map_expr.name]))
        self.emit(Insn(Op.LDX, dst=3, src=FP, off=index_slot, imm=8))
        self.temp_depth -= 2
        self.emit(Insn(Op.TAIL_CALL, comment="tail_call"))
        # falls through when the slot is empty
        self.emit(Insn(Op.MOV_IMM, dst=WORK, imm=0))

    def gen_load_builtin(self, call: ast.Call) -> None:
        if len(call.args) != 2:
            raise CodegenError(f"{call.name}(ptr, offset)")
        ptr_expr, off_expr = call.args
        if isinstance(off_expr, ast.Num):
            self.gen_expr(ptr_expr)
            base_off = off_expr.value
        else:
            self.gen_expr(ptr_expr)
            self.push_work()
            self.gen_expr(off_expr)
            self.pop_to(AUX)
            self.emit(Insn(Op.ADD_REG, dst=AUX, src=WORK))
            self.emit(Insn(Op.MOV_REG, dst=WORK, src=AUX))
            base_off = 0
        if call.name == "ld48":
            self.emit(Insn(Op.LDX, dst=AUX2, src=WORK, off=base_off, imm=2, comment="ld48 hi"))
            self.emit(Insn(Op.LSH_IMM, dst=AUX2, imm=32))
            self.emit(Insn(Op.LDX, dst=AUX, src=WORK, off=base_off + 2, imm=4, comment="ld48 lo"))
            self.emit(Insn(Op.OR_REG, dst=AUX2, src=AUX))
            self.emit(Insn(Op.MOV_REG, dst=WORK, src=AUX2))
        else:
            self.emit(Insn(Op.LDX, dst=WORK, src=WORK, off=base_off, imm=LOAD_BUILTINS[call.name], comment=call.name))

    def gen_store_builtin(self, call: ast.Call) -> None:
        if len(call.args) != 3:
            raise CodegenError(f"{call.name}(ptr, offset, value)")
        ptr_expr, off_expr, value_expr = call.args
        const_off = off_expr.value if isinstance(off_expr, ast.Num) else None
        # pointer (+ dynamic offset) into AUX
        self.gen_expr(ptr_expr)
        if const_off is None:
            self.push_work()
            self.gen_expr(off_expr)
            self.pop_to(AUX)
            self.emit(Insn(Op.ADD_REG, dst=AUX, src=WORK))
            self.emit(Insn(Op.MOV_REG, dst=WORK, src=AUX))
            const_off = 0
        ptr_slot = self.push_work()
        self.gen_expr(value_expr)
        self.emit(Insn(Op.LDX, dst=AUX, src=FP, off=ptr_slot, imm=8))
        self.temp_depth -= 1
        if call.name == "st48":
            self.emit(Insn(Op.MOV_REG, dst=AUX2, src=WORK))
            self.emit(Insn(Op.RSH_IMM, dst=AUX2, imm=32))
            self.emit(Insn(Op.STX, dst=AUX, src=AUX2, off=const_off, imm=2, comment="st48 hi"))
            self.emit(Insn(Op.AND_IMM, dst=WORK, imm=0xFFFFFFFF))
            self.emit(Insn(Op.STX, dst=AUX, src=WORK, off=const_off + 2, imm=4, comment="st48 lo"))
        else:
            self.emit(Insn(Op.STX, dst=AUX, src=WORK, off=const_off, imm=STORE_BUILTINS[call.name], comment=call.name))

    def gen_inline_call(self, func: ast.Func, args: List[ast.Expr]) -> None:
        if func.name in self.inline_stack:
            raise CodegenError(f"recursive call to {func.name!r} (recursion is not supported)")
        if len(args) != len(func.params):
            raise CodegenError(f"{func.name}: expected {len(func.params)} arguments, got {len(args)}")
        # lexical scoping: the inlined callee sees ONLY its own parameters
        # and locals, never the caller's variables
        call_scope = _Scope(None)
        # evaluate arguments in the caller scope (before the recursion guard:
        # f(f(x)) is nesting, not recursion), bind in the callee scope
        bindings = []
        for arg in args:
            self.gen_expr(arg)
            slot = self.alloc(8)
            self.emit(Insn(Op.STX, dst=FP, src=WORK, off=slot, imm=8))
            bindings.append(slot)
        self.inline_stack.append(func.name)
        outer_scope = self.scope
        self.scope = call_scope
        for param, slot in zip(func.params, bindings):
            self.scope.define(param.name, slot, is_array=False)
        frame = _InlineFrame(ret_slot=self.alloc(8))
        self.inline_frames.append(frame)
        self.gen_body(func.body)
        # fall-through: return 0
        self.emit(Insn(Op.MOV_IMM, dst=WORK, imm=0))
        self.emit(Insn(Op.STX, dst=FP, src=WORK, off=frame.ret_slot, imm=8))
        for jump in frame.ret_jumps:
            self.patch_jump(jump)
        self.emit(Insn(Op.LDX, dst=WORK, src=FP, off=frame.ret_slot, imm=8, comment=f"{func.name} result"))
        self.inline_frames.pop()
        self.scope = outer_scope
        self.inline_stack.pop()


def compile_c(
    source: str,
    name: str = "prog",
    hook: str = "xdp",
    maps: Optional[Dict[str, BpfMap]] = None,
) -> Program:
    """Compile minic ``source`` into a loadable :class:`Program`."""
    faults.fire("compile", name)
    unit = parse(source)
    generator = Codegen(unit, maps or {})
    generator.gen_main()
    return Program(
        name=name,
        insns=eliminate_unreachable(generator.insns),
        hook=hook,
        maps=generator.map_order,
        source=source,
    )
