"""Tests for the eBPF VM: ALU semantics, memory, calls, tail calls."""

import pytest

from repro.ebpf.isa import Insn, Op, call, exit_, ldx, mov_imm, mov_reg, stx
from repro.ebpf.maps import ProgArray
from repro.ebpf.memory import Pointer, Region
from repro.ebpf.program import Program
from repro.ebpf.vm import VM, Env, VMError, STACK_SIZE, TAIL_CALL_LIMIT
from repro.kernel import Kernel


@pytest.fixture
def kernel():
    return Kernel("vm-test")


def run(kernel, insns, args=None, maps=None, env=None):
    prog = Program("t", insns, hook="xdp", maps=maps or [])
    vm = VM(kernel)
    return vm.run(prog, args if args is not None else [0, 0, 0], env or Env(kernel, 4))


class TestAlu:
    def test_mov_and_exit(self, kernel):
        assert run(kernel, [mov_imm(0, 42), exit_()]) == 42

    def test_add_sub_wraparound(self, kernel):
        insns = [mov_imm(0, (1 << 64) - 1), Insn(Op.ADD_IMM, dst=0, imm=2), exit_()]
        assert run(kernel, insns) == 1

    def test_mul_div_mod(self, kernel):
        insns = [
            mov_imm(0, 100),
            Insn(Op.MUL_IMM, dst=0, imm=7),
            Insn(Op.DIV_IMM, dst=0, imm=3),   # 233
            Insn(Op.MOD_IMM, dst=0, imm=100),  # 33
            exit_(),
        ]
        assert run(kernel, insns) == 33

    def test_div_by_zero_yields_zero(self, kernel):
        insns = [mov_imm(0, 5), mov_imm(1, 0), Insn(Op.DIV_REG, dst=0, src=1), exit_()]
        assert run(kernel, insns) == 0

    def test_mod_by_zero_keeps_value(self, kernel):
        insns = [mov_imm(0, 5), mov_imm(1, 0), Insn(Op.MOD_REG, dst=0, src=1), exit_()]
        assert run(kernel, insns) == 5

    def test_bitwise_and_shifts(self, kernel):
        insns = [
            mov_imm(0, 0xF0),
            Insn(Op.OR_IMM, dst=0, imm=0x0F),
            Insn(Op.LSH_IMM, dst=0, imm=8),
            Insn(Op.RSH_IMM, dst=0, imm=4),
            Insn(Op.AND_IMM, dst=0, imm=0xFF0),
            exit_(),
        ]
        assert run(kernel, insns) == 0xFF0

    def test_shift_count_masked_to_63(self, kernel):
        insns = [mov_imm(0, 1), mov_imm(1, 64), Insn(Op.LSH_REG, dst=0, src=1), exit_()]
        assert run(kernel, insns) == 1  # 64 & 63 == 0

    def test_neg(self, kernel):
        insns = [mov_imm(0, 1), Insn(Op.NEG, dst=0), exit_()]
        assert run(kernel, insns) == (1 << 64) - 1


class TestControlFlow:
    def test_conditional_taken(self, kernel):
        insns = [
            mov_imm(0, 7),
            Insn(Op.JEQ_IMM, dst=0, imm=7, off=1),
            mov_imm(0, 0),
            exit_(),
        ]
        assert run(kernel, insns) == 7

    def test_conditional_not_taken(self, kernel):
        insns = [
            mov_imm(0, 7),
            Insn(Op.JEQ_IMM, dst=0, imm=8, off=1),
            mov_imm(0, 1),
            exit_(),
        ]
        assert run(kernel, insns) == 1

    def test_jset(self, kernel):
        insns = [
            mov_imm(0, 0b1010),
            Insn(Op.JSET_IMM, dst=0, imm=0b0010, off=1),
            mov_imm(0, 0),
            exit_(),
        ]
        assert run(kernel, insns) == 0b1010

    def test_uninitialized_register_read_aborts(self, kernel):
        with pytest.raises(VMError):
            run(kernel, [mov_reg(0, 5), exit_()], args=[])

    def test_exit_without_r0_aborts(self, kernel):
        with pytest.raises(VMError):
            run(kernel, [exit_()], args=[])

    def test_instruction_budget(self, kernel):
        # An infinite loop (the verifier would reject it; the VM must still
        # defend itself because the Polycube baseline bypasses our verifier).
        insns = [mov_imm(0, 0), Insn(Op.JA, off=-1), exit_()]
        vm = VM(kernel, insn_limit=1000)
        with pytest.raises(VMError):
            vm.run(Program("loop", insns, hook="xdp"), [0], Env(kernel, 4))


class TestMemory:
    def test_stack_store_load(self, kernel):
        insns = [
            mov_imm(1, 0xABCD),
            Insn(Op.STX, dst=10, src=1, off=-8, imm=8),
            ldx(0, 10, -8, 8),
            exit_(),
        ]
        assert run(kernel, insns) == 0xABCD

    def test_sized_access_big_endian(self, kernel):
        region = Region("pkt", bytearray(b"\x12\x34\x56\x78"))
        insns = [ldx(0, 1, 0, 2), exit_()]
        assert run(kernel, insns, args=[Pointer(region, 0)]) == 0x1234

    def test_packet_rewrite(self, kernel):
        region = Region("pkt", bytearray(4))
        insns = [Insn(Op.ST_IMM, dst=1, src=2, off=1, imm=0xBEEF), mov_imm(0, 0), exit_()]
        run(kernel, insns, args=[Pointer(region, 0)])
        assert bytes(region.data) == b"\x00\xbe\xef\x00"

    def test_out_of_bounds_load_aborts(self, kernel):
        region = Region("pkt", bytearray(4))
        insns = [ldx(0, 1, 2, 4), exit_()]
        with pytest.raises(VMError):
            run(kernel, insns, args=[Pointer(region, 0)])

    def test_store_through_scalar_aborts(self, kernel):
        insns = [mov_imm(1, 1234), Insn(Op.STX, dst=1, src=1, off=0, imm=8), exit_()]
        with pytest.raises(VMError):
            run(kernel, insns, args=[])

    def test_pointer_arithmetic(self, kernel):
        region = Region("pkt", bytearray(b"\x00\x00\x00\x2a"))
        insns = [Insn(Op.ADD_IMM, dst=1, imm=3), ldx(0, 1, 0, 1), exit_()]
        assert run(kernel, insns, args=[Pointer(region, 0)]) == 0x2A

    def test_negative_pointer_offset(self, kernel):
        region = Region("pkt", bytearray(b"\x11\x22"))
        insns = [
            Insn(Op.ADD_IMM, dst=1, imm=2),
            Insn(Op.ADD_IMM, dst=1, imm=-1),
            ldx(0, 1, 0, 1),
            exit_(),
        ]
        assert run(kernel, insns, args=[Pointer(region, 0)]) == 0x22

    def test_pointer_spill_to_stack(self, kernel):
        region = Region("pkt", bytearray(b"\x99"))
        insns = [
            Insn(Op.STX, dst=10, src=1, off=-8, imm=8),  # spill pointer
            ldx(2, 10, -8, 8),                            # reload it
            ldx(0, 2, 0, 1),
            exit_(),
        ]
        assert run(kernel, insns, args=[Pointer(region, 0)]) == 0x99

    def test_pointer_spill_to_packet_aborts(self, kernel):
        region = Region("pkt", bytearray(16))
        insns = [
            mov_reg(2, 1),
            Insn(Op.STX, dst=2, src=1, off=0, imm=8),  # spill pointer into packet
            mov_imm(0, 0),
            exit_(),
        ]
        with pytest.raises(VMError):
            run(kernel, insns, args=[Pointer(region, 0)])

    def test_pointer_pointer_arithmetic_aborts(self, kernel):
        region = Region("pkt", bytearray(8))
        insns = [mov_reg(2, 1), Insn(Op.ADD_REG, dst=1, src=2), mov_imm(0, 0), exit_()]
        with pytest.raises(VMError):
            run(kernel, insns, args=[Pointer(region, 0)])


class TestCosts:
    def test_per_instruction_cost_charged(self, kernel):
        t0 = kernel.clock.now_ns
        run(kernel, [mov_imm(0, 0), exit_()])
        elapsed = kernel.clock.now_ns - t0
        expected = kernel.costs.ebpf_prog_entry + 2 * kernel.costs.ebpf_insn
        assert elapsed == pytest.approx(expected, abs=1)

    def test_less_code_is_faster(self, kernel):
        """The paper's minimality thesis, at the VM level."""
        short = [mov_imm(0, 0), exit_()]
        long = [mov_imm(0, 0)] + [Insn(Op.ADD_IMM, dst=0, imm=0)] * 50 + [exit_()]
        t0 = kernel.clock.now_ns
        run(kernel, short)
        short_cost = kernel.clock.now_ns - t0
        t0 = kernel.clock.now_ns
        run(kernel, long)
        long_cost = kernel.clock.now_ns - t0
        assert long_cost > short_cost


class TestTailCalls:
    def make_target(self, value):
        return Program(f"target{value}", [mov_imm(0, value), exit_()], hook="xdp")

    def test_tail_call_jumps(self, kernel):
        jmp = ProgArray("jmp", max_entries=4)
        jmp.set_prog(1, self.make_target(99))
        insns = [
            Insn(Op.LD_MAP, dst=2, imm=0),
            mov_imm(3, 1),
            Insn(Op.TAIL_CALL),
            mov_imm(0, 0),  # not reached on successful tail call
            exit_(),
        ]
        assert run(kernel, insns, maps=[jmp]) == 99

    def test_empty_slot_falls_through(self, kernel):
        jmp = ProgArray("jmp", max_entries=4)
        insns = [
            Insn(Op.LD_MAP, dst=2, imm=0),
            mov_imm(3, 2),
            Insn(Op.TAIL_CALL),
            mov_imm(0, 7),
            exit_(),
        ]
        assert run(kernel, insns, maps=[jmp]) == 7

    def test_tail_call_charges_cost(self, kernel):
        jmp = ProgArray("jmp", max_entries=4)
        jmp.set_prog(0, self.make_target(1))
        insns = [
            Insn(Op.LD_MAP, dst=2, imm=0),
            mov_imm(3, 0),
            Insn(Op.TAIL_CALL),
            mov_imm(0, 0),
            exit_(),
        ]
        t0 = kernel.clock.now_ns
        run(kernel, insns, maps=[jmp])
        elapsed = kernel.clock.now_ns - t0
        assert elapsed >= kernel.costs.ebpf_tail_call

    def test_tail_call_depth_limit(self, kernel):
        jmp = ProgArray("jmp", max_entries=2)
        self_call = Program(
            "selfcall",
            [
                Insn(Op.LD_MAP, dst=2, imm=0),
                mov_imm(3, 0),
                Insn(Op.TAIL_CALL),
                mov_imm(0, 0),
                exit_(),
            ],
            hook="xdp",
            maps=[jmp],
        )
        jmp.set_prog(0, self_call)
        vm = VM(kernel)
        with pytest.raises(VMError, match="tail call limit"):
            vm.run(self_call, [0, 0, 0], Env(kernel, 4))

    def test_tail_call_resets_entry_args(self, kernel):
        region = Region("pkt", bytearray(b"\x55"))
        target = Program("reader", [ldx(0, 1, 0, 1), exit_()], hook="xdp")
        jmp = ProgArray("jmp", max_entries=1)
        jmp.set_prog(0, target)
        insns = [
            mov_imm(1, 0),  # clobber r1
            Insn(Op.LD_MAP, dst=2, imm=0),
            mov_imm(3, 0),
            Insn(Op.TAIL_CALL),
            mov_imm(0, 0),
            exit_(),
        ]
        # entry r1 = pointer; the tail-called program must see it again
        assert run(kernel, insns, args=[Pointer(region, 0)], maps=[jmp]) == 0x55


class TestHelpersViaVM:
    def test_unknown_helper_aborts(self, kernel):
        with pytest.raises(VMError):
            run(kernel, [call(999), exit_()])

    def test_helper_clobbers_arg_registers(self, kernel):
        from repro.ebpf.helpers import HELPER_IDS

        insns = [
            call(HELPER_IDS["trace_printk"]),
            mov_reg(0, 1),  # r1 was clobbered by the call
            exit_(),
        ]
        with pytest.raises(VMError):
            run(kernel, insns, args=[0])
