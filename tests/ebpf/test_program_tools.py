"""Tests for program tooling: repr, disassembly, and loader bookkeeping."""

import pytest

from repro.ebpf.isa import Insn, Op, call, exit_, ldx, mov_imm, mov_reg
from repro.ebpf.loader import Loader
from repro.ebpf.minic import compile_c
from repro.ebpf.program import Program
from repro.kernel import Kernel


class TestInsnRepr:
    def test_mov_imm(self):
        text = repr(mov_imm(3, 42, "the answer"))
        assert "mov_imm" in text and "dst=r3" in text and "imm=0x2a" in text and "the answer" in text

    def test_small_imm_decimal(self):
        assert "imm=7" in repr(mov_imm(0, 7))

    def test_reg_ops_show_src(self):
        assert "src=r5" in repr(mov_reg(1, 5))
        assert "src=r2" in repr(ldx(1, 2, 4, 8))

    def test_offset_shown(self):
        assert "off=-8" in repr(Insn(Op.STX, dst=10, src=1, off=-8, imm=8))


class TestDisassembly:
    def test_disassemble_format(self):
        program = Program("demo", [mov_imm(0, 1), exit_()], hook="xdp")
        lines = program.disassemble().splitlines()
        assert lines[0] == "; program demo (xdp, 2 insns)"
        assert lines[1].startswith("   0: ")
        assert lines[2].startswith("   1: ")

    def test_compiled_source_preserved(self):
        source = "u32 main() { return 7; }"
        program = compile_c(source, name="keep")
        assert program.source == source
        assert len(program.disassemble().splitlines()) == len(program) + 1

    def test_len(self):
        program = compile_c("u32 main() { return 1 + 2; }")
        assert len(program) == len(program.insns)


class TestLoaderBookkeeping:
    def test_tc_egress_attach_detach(self):
        kernel = Kernel("ld")
        kernel.add_physical("eth0")
        loader = Loader(kernel)
        attachment = loader.load(compile_c("u32 main() { return 0; }", name="e", hook="tc"))
        loader.attach_tc("eth0", attachment, egress=True)
        dev = kernel.devices.by_name("eth0")
        assert dev.tc_egress_prog is attachment and dev.tc_ingress_prog is None
        loader.detach_tc("eth0", egress=True)
        assert dev.tc_egress_prog is None

    def test_reattaching_same_program_no_reset(self):
        kernel = Kernel("ld")
        dev = kernel.add_physical("eth0")
        loader = Loader(kernel, model_reset_loss=True)
        attachment = loader.load(compile_c("u32 main() { return 2; }", name="same"))
        loader.attach_xdp("eth0", attachment)
        loader.attach_xdp("eth0", attachment)  # idempotent
        assert dev.nic._reset_drops_remaining == 0
