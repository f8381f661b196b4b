"""Random verified bytecode: the JIT engine against the interpreter.

The translator trusts the verifier: it emits nothing for an instruction the
verifier never reached, and picks each instruction's typed form from the
operand kinds the verifier joined over every path. This suite checks that
trust on programs no template emits. :class:`_Writer` writes programs that
verify by construction — a packet-length guard, then scalar ALU on
initialised registers (every ALU op, in both the immediate and the register
form), in-bounds packet and stack loads and stores, 8-byte pointer spills
and fills, pointer arithmetic, ``bpf_map_update`` and ``bpf_map_read``
calls whose key, value and out buffers sit at any offset on the stack
(each read followed by partial reads of the bytes the helper wrote),
forward branches (some infeasible, some over dead code), the odd pointer
null check, and an exit through ``mov r0``, ``bpf_redirect`` or a tail
call through a prog array into a second random program, which runs on a
fresh frame and may read slots it never wrote. Before it exits, a program
folds every slot that holds scalar bytes into its verdict or redirect
target, so the final stack is observed.

Five cases aim at what the JIT's block layout, constant folding, dead
stores, fused moves and deferred reads could get wrong: a constant or
packet pointer spilled to a slot that one branch arm overwrites with a
different one and that is filled after the join; a MAC-style 2 + 4 byte
move from a ``bpf_map_read`` out buffer to the packet with the call that
writes those bytes before the reads or between the reads and the stores;
a slot stored before a branch that only one successor reads; a copy of a
register whose source then loads a packet byte, read together with the
source by one ALU op, branch or ``bpf_trace_printk`` call; and, in one
program of five, a map whose lookups of any key but the seeded one fail,
so ``bpf_map_read`` aborts the program mid-run. Its own kind model joins
branch paths conservatively, so a register that may hold a pointer on one
path and a scalar on another is only moved, spilled or offset, which the
verifier accepts on every path. Such mixed operands are what the JIT
declines; the interpreter then serves the program, or the rest of the
chain when the declined program is a tail-call target.

The mix puts stack slots in both of the JIT's storage classes: Python
locals for slots only ever accessed whole, and the frame's ``Region`` for
the bytes a helper can reach or that are accessed piecewise.

Each program runs through :class:`JitEngine` and the interpreter on twin
kernels: the verdict (or the abort message), the packet bytes, the
redirect target, the executed instruction count, the exact simulated clock
at the end and at every helper call, the ``bpf_trace_printk`` records and
the map contents must agree, for
programs the JIT compiles and for programs it declines alike. On an
aborted run the clock holds the charge for exactly the instructions the
path counted up to the failing call.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebpf.helpers import HELPER_IDS
from repro.ebpf.isa import (
    ALU_IMM_OPS, ALU_REG_OPS, MEM_SIZES, Insn, Op, call, exit_, ldx, mov_imm, mov_reg, stx,
)
from repro.ebpf.jit import JitEngine, compile_program
from repro.ebpf.maps import HashMap, ProgArray
from repro.ebpf.memory import MemoryError_, Pointer, Region
from repro.ebpf.program import Program
from repro.ebpf.verifier import verify
from repro.ebpf.vm import STACK_SIZE, VM, Env, VMError
from repro.kernel import Kernel
from tests.ebpf.clocked_helpers import clocked_helpers, forget_units

#: The guard proves this many packet bytes before anything touches them.
MIN_LEN = 32
#: Absolute frame offsets of the 8-byte stack slots programs use.
SLOT_BASES = tuple(STACK_SIZE - 8 * k for k in range(1, 7))
#: Registers a program may overwrite: r1 stays the packet pointer until
#: the closing redirect call, r10 is read-only.
WRITABLE = (0, 2, 3, 4, 5, 6, 7, 8, 9)

SCALAR = ("scalar", None)
MIXED = ("mixed", None)

ALU_IMM = sorted(ALU_IMM_OPS, key=lambda op: op.value)
ALU_REG = sorted(ALU_REG_OPS, key=lambda op: op.value)
JMP_IMM = [Op.JEQ_IMM, Op.JNE_IMM, Op.JGT_IMM, Op.JGE_IMM, Op.JLT_IMM, Op.JLE_IMM, Op.JSET_IMM]
JMP_REG = [Op.JEQ_REG, Op.JNE_REG, Op.JGT_REG, Op.JGE_REG, Op.JLT_REG, Op.JLE_REG]
IMMS = (0, 1, 2, 3, 7, 8, 14, 31, 63, 64, 255, 0xFFFF, -1, -8, 0x7FFFFFFF)


def _join(a, b):
    """The writer's kind of a register or slot where two paths meet."""
    if a == b:
        return a
    if a is None or b is None:
        return None  # uninitialised on some path: never read again
    return MIXED


class _Writer:
    """Writes one program that verifies by construction.

    The state is ``regs`` (register → kind) and ``slots`` (slot base →
    kind of the 8 bytes there; absent means scalar bytes). A kind is
    ``SCALAR``, ``MIXED``, ``("pkt", offset)`` or ``("stack", offset)``.
    The program's maps are ``hmap`` (``LD_MAP`` 0) and, when it may
    tail-call, ``jmp`` (``LD_MAP`` 1).
    """

    def __init__(self, rnd, hmap, jmp=None) -> None:
        self.rnd = rnd
        self.insns = []
        self.hmap = hmap
        self.jmp = jmp

    def build(self) -> Program:
        rnd = self.rnd
        self.insns += [
            Insn(Op.JGE_IMM, dst=2, imm=MIN_LEN, off=2),
            mov_imm(0, 1),
            exit_(),
        ]
        regs = {1: ("pkt", 0), 2: SCALAR, 3: SCALAR, 10: ("stack", STACK_SIZE)}
        for reg in (0, 4, 5, 6, 7, 8, 9):
            if rnd.random() < 0.8:
                self.insns.append(mov_imm(reg, rnd.choice(IMMS)))
                regs[reg] = SCALAR
        slots = {}
        live = self.block(regs, slots, rnd.randint(4, 16), depth=0)
        if live:
            end = rnd.random()
            if self.jmp is not None and end < 0.3:
                # slot 0 holds the callee, slot 1 is empty: fall through
                self.observe(slots, 0)
                self.insns += [
                    Insn(Op.LD_MAP, dst=2, imm=1),
                    mov_imm(3, rnd.choice((0, 0, 0, 1))),
                    Insn(Op.TAIL_CALL),
                    exit_(),
                ]
            elif end < 0.5:
                self.observe(slots, 1)
                self.insns += [mov_imm(2, 0), call(HELPER_IDS["redirect"]), exit_()]
            else:
                self.observe(slots, 0)
                self.insns.append(exit_())
        maps = (self.hmap,) if self.jmp is None else (self.hmap, self.jmp)
        return Program("random", self.insns, hook="xdp", maps=maps)

    def observe(self, slots, reg) -> None:
        """Fold every slot holding scalar bytes on every path into ``reg``
        with 8-byte loads, so the final stack shows in the verdict or the
        redirect target."""
        self.insns.append(mov_imm(reg, 0))
        for base in SLOT_BASES:
            if slots.get(base, SCALAR) == SCALAR:
                self.insns += [
                    ldx(4, 10, base - STACK_SIZE, 8),
                    Insn(Op.MUL_IMM, dst=reg, imm=31),
                    Insn(Op.ADD_REG, dst=reg, src=4),
                ]

    # ---------------------------------------------------------- structure

    def block(self, regs, slots, steps, depth) -> bool:
        """Append ``steps`` actions; False once the block has exited."""
        actions = [
            self.alu_imm, self.alu_reg, self.neg, self.mov, self.mov,
            self.packet_load, self.packet_store, self.stack_store,
            self.stack_load, self.spill, self.pointer_add, self.mixed_add,
            self.map_call, self.spill_join, self.byte_moves, self.one_arm_reads,
            self.operand_aliases,
        ]
        if depth < 3:
            actions += [self.branch, self.branch, self.dead_code]
        for _ in range(steps):
            if depth and self.rnd.random() < 0.05:
                self.insns += [mov_imm(0, self.rnd.randint(0, 4)), exit_()]
                return False
            while not self.rnd.choice(actions)(regs, slots, depth):
                pass
        return True

    def branch(self, regs, slots, depth) -> bool:
        rnd = self.rnd
        scalars = self.regs_of(regs, SCALAR)
        pointers = [r for r, k in regs.items() if k and k[0] in ("pkt", "stack")]
        if rnd.random() < 0.05 and pointers:
            # a pointer null check: verified (both edges explored), and a
            # form the JIT declines
            jump = Insn(rnd.choice((Op.JEQ_IMM, Op.JNE_IMM)), dst=rnd.choice(pointers))
        elif not scalars:
            return False
        elif rnd.random() < 0.5:
            jump = Insn(rnd.choice(JMP_IMM), dst=rnd.choice(scalars), imm=rnd.choice(IMMS))
        else:
            jump = Insn(rnd.choice(JMP_REG), dst=rnd.choice(scalars), src=rnd.choice(scalars))
        at = len(self.insns)
        self.insns.append(jump)
        taken_regs, taken_slots = dict(regs), dict(slots)
        live = self.block(regs, slots, rnd.randint(0, 5), depth + 1)
        jump.off = len(self.insns) - at - 1
        if not live:
            regs.clear()
            regs.update(taken_regs)
            slots.clear()
            slots.update(taken_slots)
            return True
        for reg in set(regs) | set(taken_regs):
            regs[reg] = _join(regs.get(reg), taken_regs.get(reg))
        for base in set(slots) | set(taken_slots):
            slots[base] = _join(slots.get(base, SCALAR), taken_slots.get(base, SCALAR))
        return True

    def dead_code(self, regs, slots, depth) -> bool:
        jump = Insn(Op.JA)
        at = len(self.insns)
        self.insns.append(jump)
        self.block(dict(regs), dict(slots), self.rnd.randint(1, 3), depth + 1)
        jump.off = len(self.insns) - at - 1
        return True

    # --------------------------------------------------------------- ALU

    def regs_of(self, regs, kind):
        return [r for r, k in regs.items() if k == kind]

    def writable_scalar(self, regs):
        return [r for r in self.regs_of(regs, SCALAR) if r in WRITABLE]

    def alu_imm(self, regs, slots, depth) -> bool:
        dsts = self.writable_scalar(regs)
        if not dsts:
            return False
        op = self.rnd.choice(ALU_IMM)
        self.insns.append(Insn(op, dst=self.rnd.choice(dsts), imm=self.rnd.choice(IMMS)))
        return True

    def alu_reg(self, regs, slots, depth) -> bool:
        dsts = self.writable_scalar(regs)
        if not dsts:
            return False
        op = self.rnd.choice(ALU_REG)
        src = self.rnd.choice(self.regs_of(regs, SCALAR))
        self.insns.append(Insn(op, dst=self.rnd.choice(dsts), src=src))
        return True

    def neg(self, regs, slots, depth) -> bool:
        dsts = self.writable_scalar(regs)
        if not dsts:
            return False
        self.insns.append(Insn(Op.NEG, dst=self.rnd.choice(dsts)))
        return True

    def mov(self, regs, slots, depth) -> bool:
        dst = self.rnd.choice(WRITABLE)
        sources = [r for r, k in regs.items() if k is not None]
        if self.rnd.random() < 0.5:
            self.insns.append(mov_imm(dst, self.rnd.choice(IMMS)))
            regs[dst] = SCALAR
        else:
            src = self.rnd.choice(sources)
            self.insns.append(mov_reg(dst, src))
            regs[dst] = regs[src]
        return True

    def pointer_add(self, regs, slots, depth) -> bool:
        """Move a pointer within its region, or derive a new one."""
        rnd = self.rnd
        choices = [r for r, k in regs.items() if k and k[0] in ("pkt", "stack")]
        src = rnd.choice(choices)
        kind, offset = regs[src]
        low, high = (0, MIN_LEN) if kind == "pkt" else (SLOT_BASES[-1], STACK_SIZE)
        target = rnd.randint(low, high)
        delta = target - offset
        dst = src if src in WRITABLE and rnd.random() < 0.5 else rnd.choice(WRITABLE)
        form = rnd.randrange(3)
        if form == 0 or dst == src:
            if dst != src:
                self.insns.append(mov_reg(dst, src))
            op = Op.ADD_IMM if delta >= 0 or rnd.random() < 0.5 else Op.SUB_IMM
            self.insns.append(Insn(op, dst=dst, imm=delta if op is Op.ADD_IMM else -delta))
        elif form == 1:
            # pointer += constant register
            tmp = rnd.choice([r for r in WRITABLE if r != dst])
            self.insns += [mov_reg(dst, src), mov_imm(tmp, delta), Insn(Op.ADD_REG, dst=dst, src=tmp)]
            regs[tmp] = SCALAR
        else:
            # constant scalar += pointer
            self.insns += [mov_imm(dst, delta), Insn(Op.ADD_REG, dst=dst, src=src)]
        regs[dst] = (kind, target)
        return True

    def mixed_add(self, regs, slots, depth) -> bool:
        dsts = [r for r in self.regs_of(regs, MIXED) if r in WRITABLE]
        if not dsts:
            return False
        self.insns.append(Insn(Op.ADD_IMM, dst=self.rnd.choice(dsts), imm=self.rnd.randint(0, 8)))
        return True

    # ------------------------------------------------------------ memory

    def _based(self, regs, kind):
        return [(r, k[1]) for r, k in regs.items() if k and k[0] == kind]

    def packet_load(self, regs, slots, depth) -> bool:
        if not self._based(regs, "pkt"):
            return False  # a helper call clobbered the last packet pointer
        base, offset = self.rnd.choice(self._based(regs, "pkt"))
        size = self.rnd.choice(MEM_SIZES)
        at = self.rnd.randint(0, MIN_LEN - size)
        dst = self.rnd.choice(WRITABLE)
        self.insns.append(ldx(dst, base, at - offset, size))
        regs[dst] = SCALAR
        return True

    def packet_store(self, regs, slots, depth) -> bool:
        if not self._based(regs, "pkt"):
            return False
        base, offset = self.rnd.choice(self._based(regs, "pkt"))
        size = self.rnd.choice(MEM_SIZES)
        at = self.rnd.randint(0, MIN_LEN - size)
        scalars = self.regs_of(regs, SCALAR)
        if scalars and self.rnd.random() < 0.6:
            self.insns.append(stx(base, self.rnd.choice(scalars), at - offset, size))
        else:
            self.insns.append(
                Insn(Op.ST_IMM, dst=base, src=size, off=at - offset, imm=self.rnd.choice(IMMS))
            )
        return True

    def _stack_at(self, regs, size, slots=None):
        """A stack base register plus (slot base, absolute offset) to access;
        given ``slots``, prefer one holding a spilled pointer."""
        base, offset = self.rnd.choice(self._based(regs, "stack"))
        spilled = [b for b, k in (slots or {}).items() if k != SCALAR]
        if spilled and self.rnd.random() < 0.5:
            slot = self.rnd.choice(spilled)
        else:
            slot = self.rnd.choice(SLOT_BASES)
        return base, offset, slot, slot + self.rnd.randint(0, 8 - size)

    def stack_store(self, regs, slots, depth) -> bool:
        size = 8 if self.rnd.random() < 0.5 else self.rnd.choice(MEM_SIZES)
        base, offset, slot, at = self._stack_at(regs, size, slots)
        scalars = self.regs_of(regs, SCALAR)
        if scalars and self.rnd.random() < 0.6:
            self.insns.append(stx(base, self.rnd.choice(scalars), at - offset, size))
        else:
            self.insns.append(
                Insn(Op.ST_IMM, dst=base, src=size, off=at - offset, imm=self.rnd.choice(IMMS))
            )
        slots[slot] = SCALAR
        return True

    def stack_load(self, regs, slots, depth) -> bool:
        size = 8 if self.rnd.random() < 0.5 else self.rnd.choice(MEM_SIZES)
        base, offset, slot, at = self._stack_at(regs, size, slots)
        dst = self.rnd.choice(WRITABLE)
        self.insns.append(ldx(dst, base, at - offset, size))
        # an 8-byte load fills whatever the slot holds; narrower ones read bytes
        regs[dst] = slots.get(slot, SCALAR) if size == 8 else SCALAR
        return True

    def spill(self, regs, slots, depth) -> bool:
        values = [r for r, k in regs.items() if k is not None and k != SCALAR]
        if not values:
            return False
        src = self.rnd.choice(values)
        base, offset, slot, _ = self._stack_at(regs, 8)
        self.insns.append(stx(base, src, slot - offset, 8))
        slots[slot] = regs[src]
        return True

    # ------------------------------------------- what the JIT could miss

    def spill_join(self, regs, slots, depth) -> bool:
        """A slot gets a constant or a packet pointer, a branch arm
        overwrites it with a different one, and the slot is filled after
        the join: the fill must see whichever value its path stored."""
        rnd = self.rnd
        pkts = self._based(regs, "pkt")
        pointer = bool(pkts) and rnd.random() < 0.5
        base, offset = rnd.choice(pkts) if pointer else (None, 0)
        value = rnd.choice([r for r in WRITABLE if r != base])
        scalars = [r for r in self.regs_of(regs, SCALAR) if r != value]
        if not scalars:
            return False
        at = rnd.choice(SLOT_BASES) - STACK_SIZE
        if pointer:
            first, second = rnd.sample(range(MIN_LEN - 4), 2)

            def put(target):
                return [mov_reg(value, base), Insn(Op.ADD_IMM, dst=value, imm=target - offset)]
        else:
            first, second = rnd.sample(IMMS, 2)

            def put(target):
                return [mov_imm(value, target)]
        arm = put(second) + [stx(10, value, at, 8)]
        fill = rnd.choice(WRITABLE)
        self.insns += put(first) + [stx(10, value, at, 8)]
        self.insns.append(Insn(rnd.choice(JMP_IMM), dst=rnd.choice(scalars), imm=rnd.choice(IMMS), off=len(arm)))
        self.insns += arm + [ldx(fill, 10, at, 8)]
        if pointer:
            # the packet pointer's offset differs by path: only moved,
            # spilled or offset from here on, after one load through it
            dst = rnd.choice(WRITABLE)
            self.insns.append(ldx(dst, fill, 0, rnd.choice((1, 2, 4))))
            regs[value] = regs[fill] = slots[at + STACK_SIZE] = MIXED
            regs[dst] = SCALAR
        else:
            regs[value] = regs[fill] = SCALAR
            slots.pop(at + STACK_SIZE, None)
        return True

    def byte_moves(self, regs, slots, depth) -> bool:
        """A MAC-style move: six bytes of a ``bpf_map_read`` out buffer read
        as 2 + 4, shifted and ORed into one value, and stored to the packet
        as 2 + 4, with the call that may write those bytes either before the
        reads or between the reads and the stores."""
        rnd = self.rnd
        pkts = self._based(regs, "pkt")
        value_size = self.hmap.value_size
        bases = [
            b for b in SLOT_BASES
            if b + value_size <= STACK_SIZE
            and all(slots.get(s, SCALAR) == SCALAR for s in SLOT_BASES if s < b + value_size and b < s + 8)
        ]
        if not pkts or not bases:
            return False
        base, offset = rnd.choice(pkts)
        value_at = rnd.choice(bases)
        src = value_at + rnd.randint(0, value_size - 6) - STACK_SIZE
        to = rnd.randint(0, MIN_LEN - 6) - offset
        key_at = rnd.choice(SLOT_BASES[1:])  # room for a 12-byte key
        prelude = [mov_reg(9, base), Insn(Op.ST_IMM, dst=10, src=8, off=value_at - STACK_SIZE, imm=rnd.choice(IMMS))]
        zero_key = rnd.random() < 0.5
        if zero_key:  # an all-zero key: the read hits and writes the buffer
            prelude += [Insn(Op.ST_IMM, dst=10, src=8, off=key_at - STACK_SIZE, imm=0),
                        Insn(Op.ST_IMM, dst=10, src=4, off=key_at + 8 - STACK_SIZE, imm=0)]
        reads = [ldx(6, 10, src, 2), Insn(Op.LSH_IMM, dst=6, imm=32), ldx(7, 10, src + 2, 4),
                 Insn(Op.OR_REG, dst=6, src=7)]
        read_call = [
            Insn(Op.LD_MAP, dst=1, imm=0),
            mov_reg(2, 10), Insn(Op.ADD_IMM, dst=2, imm=key_at - STACK_SIZE),
            mov_reg(3, 10), Insn(Op.ADD_IMM, dst=3, imm=value_at - STACK_SIZE),
            call(HELPER_IDS["map_read"]),
        ]
        stores = [mov_reg(8, 6), Insn(Op.RSH_IMM, dst=8, imm=32), stx(9, 8, to, 2),
                  Insn(Op.AND_IMM, dst=6, imm=0xFFFFFFFF), stx(9, 6, to + 2, 4)]
        middle = reads + read_call if rnd.random() < 0.5 else read_call + reads
        self.insns += prelude + middle + stores
        for reg in (1, 2, 3, 4, 5):
            regs[reg] = None  # clobbered by the call
        regs[0] = regs[6] = regs[7] = regs[8] = SCALAR
        regs[9] = ("pkt", offset)
        for slot in SLOT_BASES:
            if slot < value_at + value_size and value_at < slot + 8 or zero_key and key_at <= slot < key_at + 12:
                slots.pop(slot, None)
        return True

    def one_arm_reads(self, regs, slots, depth) -> bool:
        """A slot stored before a branch is read on one arm only and is
        overwritten after the join: the store is live on one successor."""
        rnd = self.rnd
        scalars = self.regs_of(regs, SCALAR)
        if not scalars:
            return False
        slot, keep = rnd.sample(SLOT_BASES, 2)
        reader = rnd.choice(WRITABLE)
        self.insns += [
            stx(10, rnd.choice(scalars), slot - STACK_SIZE, 8),
            Insn(rnd.choice(JMP_IMM), dst=rnd.choice(scalars), imm=rnd.choice(IMMS), off=2),
            ldx(reader, 10, slot - STACK_SIZE, 8),
            stx(10, reader, keep - STACK_SIZE, 8),  # observed at exit
            Insn(Op.ST_IMM, dst=10, src=8, off=slot - STACK_SIZE, imm=rnd.choice(IMMS)),
        ]
        regs[reader] = _join(regs.get(reader), SCALAR)
        slots.pop(slot, None)
        slots[keep] = _join(slots.get(keep, SCALAR), SCALAR)
        if slots[keep] == SCALAR:
            del slots[keep]
        return True

    def operand_aliases(self, regs, slots, depth) -> bool:
        """A register copies a computed value, the source then loads a
        packet byte at a constant offset, and one instruction reads both
        while the source stays live: an ALU op, a branch, or a
        ``bpf_trace_printk`` call with the copy as an argument. The copy
        must still read the computed value, not the byte."""
        rnd = self.rnd
        form = rnd.choice(("alu", "branch", "call"))
        source = rnd.choice((6, 7, 8, 9))
        pkts = [(r, off) for r, off in self._based(regs, "pkt") if r != source]
        if not pkts:
            return False
        base, offset = rnd.choice(pkts)
        copy = rnd.choice([r for r in ((2, 3) if form == "call" else WRITABLE) if r not in (source, base)])
        self.insns += [
            ldx(source, base, rnd.randint(0, MIN_LEN - 2) - offset, 2),
            Insn(Op.ADD_IMM, dst=source, imm=rnd.choice(IMMS)),  # in source's variable
            mov_reg(copy, source),
            ldx(source, base, rnd.randint(0, MIN_LEN - 1) - offset, 1),
        ]
        kept = rnd.sample(SLOT_BASES, 2)
        if form == "alu":
            self.insns.append(Insn(rnd.choice(ALU_REG), dst=copy, src=source))
        elif form == "branch":
            self.insns += [Insn(rnd.choice(JMP_REG), dst=copy, src=source, off=1),
                           Insn(Op.ADD_IMM, dst=copy, imm=rnd.choice(IMMS))]
        else:
            self.insns += [mov_imm(1, rnd.choice(IMMS)), mov_imm(5 - copy, rnd.choice(IMMS)),
                           call(HELPER_IDS["trace_printk"])]
            for reg in (1, 2, 3, 4, 5):
                regs[reg] = None  # clobbered by the call
            regs[0] = SCALAR
            kept = kept[1:]
        if form != "call":
            self.insns.append(stx(10, copy, kept[0] - STACK_SIZE, 8))  # observed at exit
            regs[copy] = SCALAR
        self.insns.append(stx(10, source, kept[-1] - STACK_SIZE, 8))  # observed at exit
        regs[source] = SCALAR
        for slot in kept:
            slots.pop(slot, None)
        return True

    # ----------------------------------------------------------- helpers

    def map_call(self, regs, slots, depth) -> bool:
        """``bpf_map_update`` or ``bpf_map_read`` on ``hmap``, with the key
        and the value or out buffer anywhere in the used part of the frame;
        a read is followed by partial loads of the bytes it may write."""
        rnd = self.rnd
        key_size, value_size = self.hmap.key_size, self.hmap.value_size
        key_at = rnd.randint(SLOT_BASES[-1], STACK_SIZE - key_size)
        value_at = rnd.randint(SLOT_BASES[-1], STACK_SIZE - value_size)
        written = [b for b in SLOT_BASES if b < value_at + value_size and value_at < b + 8]
        read = rnd.random() < 0.5
        if read and any(slots.get(b, SCALAR) != SCALAR for b in written):
            return False  # the verifier refuses a helper write over a spilled pointer
        self.insns += [
            Insn(Op.LD_MAP, dst=1, imm=0),
            mov_reg(2, 10),
            Insn(Op.ADD_IMM, dst=2, imm=key_at - STACK_SIZE),
            mov_reg(3, 10),
            Insn(Op.ADD_IMM, dst=3, imm=value_at - STACK_SIZE),
            call(HELPER_IDS["map_read" if read else "map_update"]),
        ]
        for reg in (1, 2, 3, 4, 5):
            regs[reg] = None  # clobbered by the call
        regs[0] = SCALAR
        if read:
            for base in written:
                slots.pop(base, None)  # scalar bytes now
            for __ in range(rnd.randint(1, 3)):
                size = rnd.choice((1, 2, 4))
                dst = rnd.choice(WRITABLE)
                at = rnd.randint(value_at, value_at + value_size - size)
                self.insns.append(ldx(dst, 10, at - STACK_SIZE, size))
                regs[dst] = SCALAR
        return True


class _FaultyMap(HashMap):
    """A hash map whose lookups of any key but the seeded all-zero one
    fail, so a ``bpf_map_read`` of such a key aborts the program."""

    def lookup(self, key):
        if any(key):
            raise MemoryError_("faulty map: key %s" % key.hex())
        return super().lookup(key)


def build_program(rnd) -> Program:
    """A random program whose prog array's slot 0 holds a second one; both
    share one hash map with random key and value sizes, a faulty one in
    one program of five."""
    kind = _FaultyMap if rnd.random() < 0.2 else HashMap
    hmap = kind("hmap", rnd.choice((4, 8, 12)), rnd.choice((8, 12, 16)))
    jmp = ProgArray("jmp")
    jmp.set_prog(0, _Writer(rnd, hmap).build())
    return _Writer(rnd, hmap, jmp).build()


def _run(program, frame, interpreter):
    hmap = program.maps[0]
    hmap._data.clear()
    hmap.update(bytes(hmap.key_size), bytes(range(1, hmap.value_size + 1)))
    kernel = Kernel("jit-random")
    region = Region("pkt", bytearray(frame))
    args = [Pointer(region, 0), len(frame), 4]
    env = Env(kernel, 4)
    with clocked_helpers() as seen:
        try:
            if interpreter:
                vm = VM(kernel)
                outcome = (vm.run(program, args, env), vm.insns_executed)
            else:
                forget_units(program)  # compile with the clocked helpers
                outcome = JitEngine(kernel).execute(program, args, env)
        except VMError as exc:
            outcome = ("abort", str(exc))
    contents = sorted(hmap._data.items())
    return (outcome, bytes(region.data), env.redirect_ifindex, kernel.clock._fs, tuple(seen),
            tuple(env.trace), contents)


frames = st.one_of(
    st.binary(min_size=MIN_LEN, max_size=64),
    st.binary(max_size=MIN_LEN - 1),
)


class TestRandomVerifiedPrograms:
    @settings(max_examples=200, deadline=None)
    @given(rnd=st.randoms(use_true_random=False), frame=frames)
    def test_engine_matches_interpreter(self, rnd, frame):
        program = build_program(rnd)
        verify(program)
        verify(program.maps[1].get_prog(0))
        assert _run(program, frame, interpreter=False) == _run(program, frame, interpreter=True)

    def test_seeded_programs_match_on_a_full_frame(self):
        # A fixed sweep beside the Hypothesis search: every one of these
        # programs gets past its length guard.
        frame = bytes(range(MIN_LEN + 16))
        aborted = 0
        for seed in range(300):
            program = build_program(random.Random(seed))
            got = _run(program, frame, interpreter=False)
            assert got == _run(program, frame, interpreter=True), seed
            aborted += got[0][0] == "abort"
        assert aborted > 0  # the faulty map's aborts are compared too

    def test_most_programs_compile_and_the_rest_decline(self):
        # The writer's mixed operands (and pointer null checks) are what
        # the JIT declines; everything else must get a typed form. Tail
        # targets are random programs too, so chains continue both
        # compiled and in the interpreter.
        compiled = declined = 0
        targets = {True: 0, False: 0}
        storage = {"locals": 0, "region": 0}
        passes = {"folded": 0, "dead_stores": 0, "fused_moves": 0, "guards": 0}
        for seed in range(300):
            program = build_program(random.Random(seed))
            for prog in (program, program.maps[1].get_prog(0)):
                verify(prog)
                unit, report = compile_program(prog)
                if prog is not program:
                    targets[unit is not None] += 1
                elif unit is not None:
                    compiled += 1
                else:
                    declined += 1
                if unit is None:
                    assert "no typed form" in report.error, report.error
                else:
                    storage["locals"] += report.stack_locals > 0
                    storage["region"] += "_stk = _Region(" in unit.source
                    for name in passes:
                        passes[name] += getattr(report, name) > 0
        assert compiled >= 0.8 * 300
        assert declined >= 0.05 * 300
        assert targets[True] >= 0.8 * 300 and targets[False] > 0
        assert storage["locals"] > 0 and storage["region"] > 0
        assert all(passes.values()), passes
