"""Property test: the verifier's range domain over-approximates the VM.

The range-tracking verifier proves packet, stack and map-value bounds with
:func:`repro.ebpf.analysis.domain.alu_range` interval arithmetic. Soundness
means: for any straight-line ALU window and any entry registers drawn from
the declared intervals, the concrete value the VM's ``_alu`` computes for
every register lies inside the interval that folding ``alu_range`` over the
window reports. If this ever fails, the verifier could accept an access on
a bound it computed wrongly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebpf.analysis.domain import Range, alu_range
from repro.ebpf.isa import ALU_IMM_OPS, MASK64, Insn, Op
from repro.ebpf.program import Program
from repro.ebpf.vm import VM

_IMM_OPS = (
    Op.ADD_IMM,
    Op.SUB_IMM,
    Op.MUL_IMM,
    Op.DIV_IMM,
    Op.MOD_IMM,
    Op.AND_IMM,
    Op.OR_IMM,
    Op.XOR_IMM,
    Op.LSH_IMM,
    Op.RSH_IMM,
)
_REG_OPS = (
    Op.ADD_REG,
    Op.SUB_REG,
    Op.MUL_REG,
    Op.DIV_REG,
    Op.MOD_REG,
    Op.AND_REG,
    Op.OR_REG,
    Op.XOR_REG,
    Op.LSH_REG,
    Op.RSH_REG,
)
_SHIFT_OPS = (Op.LSH_IMM, Op.RSH_IMM)

_NUM_REGS = 6  # r0–r5: plain scalars, no pointer/ABI roles in a raw window

# VM._alu consults the program only for error messages.
_VM = VM.__new__(VM)
_PROG = Program(name="window", insns=[Insn(Op.EXIT)], hook="xdp")

interesting = st.sampled_from(
    [0, 1, 2, 3, 7, 8, 63, 64, 255, 256, (1 << 32) - 1, 1 << 32, (1 << 63), MASK64]
)
values = interesting | st.integers(min_value=0, max_value=MASK64)


@st.composite
def insn_windows(draw):
    """A random straight-line scalar window (1–6 instructions)."""
    insns = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        dst = draw(st.integers(min_value=0, max_value=_NUM_REGS - 1))
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            insns.append(Insn(Op.MOV_IMM, dst=dst, imm=draw(values)))
        elif kind == 1:
            src = draw(st.integers(min_value=0, max_value=_NUM_REGS - 1))
            insns.append(Insn(Op.MOV_REG, dst=dst, src=src))
        elif kind == 2:
            op = draw(st.sampled_from(_IMM_OPS + (Op.NEG,)))
            imm = 0
            if op in _SHIFT_OPS:
                imm = draw(st.integers(min_value=0, max_value=63))
            elif op is not Op.NEG:
                imm = draw(values)
            insns.append(Insn(op, dst=dst, imm=imm))
        else:
            src = draw(st.integers(min_value=0, max_value=_NUM_REGS - 1))
            insns.append(Insn(draw(st.sampled_from(_REG_OPS)), dst=dst, src=src))
    return insns


@st.composite
def entry_states(draw):
    """Per-register (interval, concrete point inside it) pairs."""
    ranges = {}
    concrete = {}
    for reg in range(_NUM_REGS):
        a, b = draw(values), draw(values)
        lo, hi = min(a, b), max(a, b)
        ranges[reg] = Range(lo, hi)
        concrete[reg] = draw(st.integers(min_value=lo, max_value=hi))
    return ranges, concrete


def abstract_eval(window, ranges):
    """Fold the verifier's ``alu_range`` over the window."""
    regs = dict(ranges)
    for insn in window:
        op = insn.op
        if op is Op.MOV_IMM:
            regs[insn.dst] = Range.const(insn.imm & MASK64)
        elif op is Op.MOV_REG:
            regs[insn.dst] = regs[insn.src]
        elif op is Op.NEG:
            regs[insn.dst] = alu_range("neg", regs[insn.dst], Range.const(0))
        elif op in ALU_IMM_OPS:
            regs[insn.dst] = alu_range(op.value[:-4], regs[insn.dst], Range.const(insn.imm & MASK64))
        else:
            regs[insn.dst] = alu_range(op.value[:-4], regs[insn.dst], regs[insn.src])
    return regs


def concrete_eval(window, values):
    """Run the window under the VM's ALU (scalar ALU cannot abort:
    div/mod-by-zero are total)."""
    regs = dict(values)
    for insn in window:
        op = insn.op
        if op is Op.MOV_IMM:
            regs[insn.dst] = insn.imm & MASK64
        elif op is Op.MOV_REG:
            regs[insn.dst] = regs[insn.src]
        elif op is Op.NEG:
            regs[insn.dst] = (-regs[insn.dst]) & MASK64
        elif op in ALU_IMM_OPS:
            regs[insn.dst] = _VM._alu(op.value[:-4], regs[insn.dst], insn.imm & MASK64, insn, _PROG)
        else:
            regs[insn.dst] = _VM._alu(op.value[:-4], regs[insn.dst], regs[insn.src], insn, _PROG)
    return regs


@settings(max_examples=200, deadline=None)
@given(window=insn_windows(), entry=entry_states())
def test_abstract_ranges_contain_concrete_results(window, entry):
    init_ranges, init_concrete = entry
    final_ranges = abstract_eval(window, init_ranges)
    final_regs = concrete_eval(window, init_concrete)
    for reg in range(_NUM_REGS):
        value = final_regs[reg]
        rng = final_ranges[reg]
        assert rng.lo <= value <= rng.hi, (
            f"r{reg}: concrete {value:#x} escapes abstract [{rng.lo:#x}, {rng.hi:#x}] "
            f"after {[str(i) for i in window]} from {init_ranges}"
        )
