"""Tests for the minic compiler: lexer, parser, codegen, execution."""

import pytest

from repro.ebpf.isa import Insn, Op, exit_, mov_imm
from repro.ebpf.loader import Loader
from repro.ebpf.maps import ProgArray
from repro.ebpf.memory import Pointer, Region
from repro.ebpf.minic import CodegenError, LexError, ParseError, compile_c, parse, tokenize
from repro.ebpf.minic.dce import eliminate_unreachable, remove_insns
from repro.ebpf.verifier import verify
from repro.ebpf.vm import VM, Env
from repro.kernel import Kernel


@pytest.fixture
def kernel():
    return Kernel("minic-test")


def run_c(kernel, source, args=None, maps=None, packet=None):
    prog = compile_c(source, name="t", hook="xdp", maps=maps)
    verify(prog)
    vm = VM(kernel)
    if packet is not None:
        region = Region("pkt", bytearray(packet))
        args = [Pointer(region, 0), len(packet), 1]
        result = vm.run(prog, args, Env(kernel, 4))
        return result, bytes(region.data)
    return vm.run(prog, args if args is not None else [0, 0, 0], Env(kernel, 4))


class TestLexer:
    def test_tokens(self):
        kinds = [(t.kind, t.text) for t in tokenize("u64 x = 0x2A; // comment")]
        assert kinds == [("kw", "u64"), ("ident", "x"), ("punct", "="), ("num", "0x2A"), ("punct", ";"), ("eof", "")]

    def test_two_char_operators(self):
        texts = [t.text for t in tokenize("a == b != c <= d >> e && f")][:-1]
        assert texts == ["a", "==", "b", "!=", "c", "<=", "d", ">>", "e", "&&", "f"]

    def test_block_comment(self):
        assert [t.text for t in tokenize("a /* hi\nthere */ b")][:-1] == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_bad_char(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]


class TestParser:
    def test_requires_main(self):
        with pytest.raises(ParseError, match="main"):
            parse("u32 helper() { return 0; }")

    def test_if_else_chain(self):
        unit = parse("u32 main() { if (1) { return 1; } else if (2) { return 2; } else { return 3; } }")
        assert unit.func("main") is not None

    def test_extern_map(self):
        unit = parse("extern map jmp; u32 main() { return 0; }")
        assert unit.maps[0].name == "jmp"

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse("u32 main() { return 1 + ; }")

    def test_rejects_stray_else(self):
        with pytest.raises(ParseError):
            parse("u32 main() { else { return 1; } }")

    def test_no_loops_in_grammar(self):
        with pytest.raises(ParseError):
            parse("u32 main() { while (1) { } return 0; }")


class TestCodegenExecution:
    def test_return_constant(self, kernel):
        assert run_c(kernel, "u32 main() { return 42; }") == 42

    def test_arithmetic(self, kernel):
        assert run_c(kernel, "u32 main() { return (2 + 3) * 4 - 6 / 2; }") == 17

    def test_precedence(self, kernel):
        assert run_c(kernel, "u32 main() { return 2 + 3 * 4; }") == 14

    def test_hex_and_bitwise(self, kernel):
        assert run_c(kernel, "u32 main() { return (0xF0 | 0x0F) & 0x3C; }") == 0x3C

    def test_shifts(self, kernel):
        assert run_c(kernel, "u32 main() { return (1 << 10) >> 2; }") == 256

    def test_variables_and_assignment(self, kernel):
        src = "u32 main() { u64 a = 5; u64 b = a * 2; a = b + 1; return a; }"
        assert run_c(kernel, src) == 11

    def test_comparisons_produce_01(self, kernel):
        assert run_c(kernel, "u32 main() { return (3 < 5) + (5 < 3) + (4 == 4); }") == 2

    def test_logical_ops_short_circuit(self, kernel):
        assert run_c(kernel, "u32 main() { return (1 && 2) + (0 || 5) + (0 && 9); }") == 2

    def test_unary(self, kernel):
        assert run_c(kernel, "u32 main() { return !0 + !7; }") == 1
        assert run_c(kernel, "u32 main() { return (~0) & 0xFF; }") == 0xFF

    def test_if_else(self, kernel):
        src = """
        u32 main(u8* pkt, u64 len, u64 ifindex) {
            if (len > 100) { return 1; }
            else { return 2; }
        }
        """
        region = Region("pkt", bytearray(150))
        assert run_c(kernel, src, args=[Pointer(region, 0), 150, 1]) == 1
        assert run_c(kernel, src, args=[Pointer(region, 0), 50, 1]) == 2

    def test_nested_if(self, kernel):
        src = """
        u32 main(u8* pkt, u64 len, u64 ifindex) {
            if (len > 10) {
                if (len > 20) { return 3; }
                return 2;
            }
            return 1;
        }
        """
        region = Region("pkt", bytearray(1))
        assert run_c(kernel, src, args=[Pointer(region, 0), 25, 1]) == 3
        assert run_c(kernel, src, args=[Pointer(region, 0), 15, 1]) == 2
        assert run_c(kernel, src, args=[Pointer(region, 0), 5, 1]) == 1

    def test_packet_load_builtins(self, kernel):
        packet = bytes([0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99])
        src = "u32 main(u8* pkt, u64 len, u64 ifindex) { if (len < 5) { return 0; } return ld32(pkt, 1); }"
        result, __ = run_c(kernel, src, packet=packet)
        assert result == 0x22334455

    def test_ld48_mac(self, kernel):
        packet = bytes([0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x00])
        src = "u32 main(u8* pkt, u64 len, u64 ifindex) { if (len < 6) { return 0; } return ld48(pkt, 0); }"
        result, __ = run_c(kernel, src, packet=packet)
        assert result == 0xAABBCCDDEEFF

    def test_store_builtins_rewrite_packet(self, kernel):
        src = """
        u32 main(u8* pkt, u64 len, u64 ifindex) {
            if (len < 8) { return 0; }
            st16(pkt, 0, 0xBEEF);
            st48(pkt, 2, 0x020000000001);
            return 0;
        }
        """
        __, data = run_c(kernel, src, packet=bytes(8))
        assert data == bytes([0xBE, 0xEF, 0x02, 0x00, 0x00, 0x00, 0x00, 0x01])

    def test_dynamic_offset_load(self, kernel):
        src = """
        u32 main(u8* pkt, u64 len, u64 ifindex) {
            if (len != 3) { return 0; }
            u64 off = len - 1;
            return ld8(pkt, off);
        }
        """
        result, __ = run_c(kernel, src, packet=b"\x00\x00\x2a")
        assert result == 0x2A

    def test_stack_array_and_addressing(self, kernel):
        src = """
        u32 main() {
            u64 buf[2];
            st64(buf, 0, 0x1122334455667788);
            return ld16(buf, 6);
        }
        """
        assert run_c(kernel, src) == 0x7788

    def test_static_function_inlined(self, kernel):
        src = """
        static u64 twice(u64 x) { return x * 2; }
        u32 main() { return twice(21); }
        """
        prog = compile_c(src, name="t")
        assert run_c(kernel, src) == 42
        # no CALL emitted for the user function
        from repro.ebpf.isa import Op
        assert all(i.op != Op.CALL for i in prog.insns)

    def test_inline_early_return(self, kernel):
        src = """
        static u64 clamp(u64 x) {
            if (x > 100) { return 100; }
            return x;
        }
        u32 main() { return clamp(250) + clamp(7); }
        """
        assert run_c(kernel, src) == 107

    def test_nested_inlining(self, kernel):
        src = """
        static u64 inc(u64 x) { return x + 1; }
        static u64 inc2(u64 x) { return inc(inc(x)); }
        u32 main() { return inc2(40); }
        """
        assert run_c(kernel, src) == 42

    def test_recursion_rejected(self, kernel):
        src = """
        static u64 loop(u64 x) { return loop(x); }
        u32 main() { return loop(1); }
        """
        with pytest.raises(CodegenError, match="recursive"):
            compile_c(src)

    def test_undefined_variable_rejected(self):
        with pytest.raises(CodegenError, match="undefined"):
            compile_c("u32 main() { return nope; }")

    def test_unknown_function_rejected(self):
        with pytest.raises(CodegenError, match="unknown function"):
            compile_c("u32 main() { return magic(); }")

    def test_stack_overflow_rejected(self):
        with pytest.raises(CodegenError, match="stack"):
            compile_c("u32 main() { u64 big[100]; return 0; }")

    def test_helper_call(self, kernel):
        # run_c's Env gives the hook's redirect verdict as 4
        src = "u32 main() { u64 v = redirect(7, 0); return v == 4; }"
        assert run_c(kernel, src) == 1

    def test_tail_call(self, kernel):
        target = compile_c("u32 main() { return 55; }", name="target")
        jmp = ProgArray("jmp", max_entries=2)
        jmp.set_prog(1, target)
        src = """
        extern map jmp;
        u32 main(u8* pkt, u64 len, u64 ifindex) {
            tail_call(pkt, jmp, 1);
            return 0;
        }
        """
        result, __ = run_c(kernel, src, maps={"jmp": jmp}, packet=b"\x00")
        assert result == 55

    def test_tail_call_missing_map_rejected(self):
        src = """
        u32 main(u8* pkt, u64 len, u64 ifindex) {
            tail_call(pkt, jmp, 1);
            return 0;
        }
        """
        with pytest.raises(CodegenError):
            compile_c(src)

    def test_extern_map_must_be_provided(self):
        with pytest.raises(CodegenError, match="not provided"):
            compile_c("extern map ghost; u32 main() { return 0; }")

    def test_compiled_programs_always_verify(self, kernel):
        sources = [
            "u32 main() { return 1 + 2 * 3; }",
            "u32 main(u8* p, u64 l, u64 i) { if (l > 14 && ld16(p, 12) == 0x800) { return 1; } return 2; }",
            "static u64 f(u64 a, u64 b) { return a % (b + 1); } u32 main() { return f(10, 2); }",
        ]
        for source in sources:
            verify(compile_c(source))


class TestSharedDce:
    def test_unreachable_tail_removed(self):
        insns = [mov_imm(0, 1), exit_(), mov_imm(0, 2), exit_()]
        kept = eliminate_unreachable(insns)
        assert len(kept) == 2

    def test_jump_retargeting(self):
        insns = [
            Insn(Op.JA, off=1),
            mov_imm(0, 9),  # dead: jumped over, no fallthrough in
            mov_imm(0, 1),
            exit_(),
        ]
        kept = remove_insns(insns, {1})
        assert len(kept) == 3
        assert kept[0].op is Op.JA and kept[0].off == 0

    def test_codegen_emits_dce_clean_bytecode(self):
        """compile_c routes through the DCE pass: nothing left over."""
        program = compile_c(
            "u32 main() { if (1) { return 2; } return 3; }", name="dce@xdp", hook="xdp"
        )
        assert eliminate_unreachable(program.insns) == program.insns
