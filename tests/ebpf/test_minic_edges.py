"""minic edge cases: scoping, precedence, errors, codegen corners."""

import pytest

from repro.ebpf.minic import CodegenError, ParseError, compile_c
from repro.ebpf.verifier import verify
from repro.ebpf.vm import VM, Env
from repro.kernel import Kernel


@pytest.fixture
def kernel():
    return Kernel("minic-edge")


def run_c(kernel, source, args=None):
    program = compile_c(source)
    verify(program)
    return VM(kernel).run(program, args if args is not None else [0, 0, 0], Env(kernel, 4))


class TestScoping:
    def test_block_shadowing(self, kernel):
        source = """
        u32 main() {
            u64 x = 1;
            if (1) {
                u64 x = 10;
                if (x != 10) { return 99; }
            }
            return x;
        }
        """
        assert run_c(kernel, source) == 1

    def test_same_scope_redefinition_rejected(self):
        with pytest.raises(CodegenError, match="redefinition"):
            compile_c("u32 main() { u64 x = 1; u64 x = 2; return x; }")

    def test_inner_scope_variable_not_visible_outside(self):
        source = """
        u32 main() {
            if (1) { u64 hidden = 5; }
            return hidden;
        }
        """
        with pytest.raises(CodegenError, match="undefined"):
            compile_c(source)

    def test_inline_params_do_not_leak(self):
        source = """
        static u64 f(u64 secret) { return secret + 1; }
        u32 main() { u64 r = f(1); return secret; }
        """
        with pytest.raises(CodegenError, match="undefined"):
            compile_c(source)

    def test_inline_functions_are_lexically_scoped(self):
        """Inlined functions use lexical (their own) scope, not the caller's."""
        source = """
        static u64 f() { return outer; }
        u32 main() { u64 outer = 7; return f(); }
        """
        with pytest.raises(CodegenError, match="undefined"):
            compile_c(source)


class TestPrecedenceAndLiterals:
    def test_unary_minus_binds_tighter(self, kernel):
        assert run_c(kernel, "u32 main() { return (0 - 2) * 3 + 10; }") == 4

    def test_shift_precedence_lower_than_additive(self, kernel):
        # C: 1 << 2 + 1 == 1 << 3
        assert run_c(kernel, "u32 main() { return 1 << 2 + 1; }") == 8

    def test_bitwise_or_lowest(self, kernel):
        # C: 1 | 2 == 3 ; 1 | 2 & 3 == 1 | (2 & 3) == 3
        assert run_c(kernel, "u32 main() { return 1 | 2 & 3; }") == 3

    def test_hex_case_insensitive(self, kernel):
        assert run_c(kernel, "u32 main() { return 0xAb + 0XcD; }") == 0xAB + 0xCD

    def test_large_64bit_literals(self, kernel):
        assert run_c(kernel, "u32 main() { return 0xFFFFFFFFFFFFFFFF & 0xFF; }") == 0xFF


class TestErrors:
    def test_array_with_initializer_rejected(self):
        with pytest.raises(CodegenError):
            compile_c("u32 main() { u64 buf[2] = 5; return 0; }")

    def test_assign_to_array_rejected(self):
        with pytest.raises(CodegenError):
            compile_c("u32 main() { u64 buf[2]; buf = 5; return 0; }")

    def test_wrong_arity_inline_call(self):
        with pytest.raises(CodegenError, match="arguments"):
            compile_c("static u64 f(u64 a) { return a; } u32 main() { return f(1, 2); }")

    def test_too_many_helper_args(self):
        with pytest.raises(CodegenError):
            compile_c("u32 main() { return trace_printk(1, 2, 3, 4, 5, 6); }")

    def test_addrof_undefined(self):
        with pytest.raises(CodegenError):
            compile_c("u32 main() { u64 p = &nothing; return 0; }")

    def test_ld_builtin_arity(self):
        with pytest.raises(CodegenError):
            compile_c("u32 main(u8* p, u64 l, u64 i) { return ld32(p); }")

    def test_st_builtin_arity(self):
        with pytest.raises(CodegenError):
            compile_c("u32 main(u8* p, u64 l, u64 i) { st32(p, 0); return 0; }")

    def test_main_too_many_params(self):
        with pytest.raises(CodegenError):
            compile_c("u32 main(u64 a, u64 b, u64 c, u64 d) { return 0; }")

    def test_mutual_recursion_rejected(self):
        source = """
        static u64 ping(u64 x) { return pong(x); }
        static u64 pong(u64 x) { return ping(x); }
        u32 main() { return ping(1); }
        """
        with pytest.raises(CodegenError, match="recursive"):
            compile_c(source)


class TestCodegenCorners:
    def test_deeply_nested_expression(self, kernel):
        expr = "1"
        for i in range(2, 12):
            expr = f"({expr} + {i})"
        assert run_c(kernel, f"u32 main() {{ return {expr}; }}") == sum(range(1, 12))

    def test_many_locals(self, kernel):
        decls = "\n".join(f"u64 v{i} = {i};" for i in range(30))
        total = " + ".join(f"v{i}" for i in range(30))
        assert run_c(kernel, f"u32 main() {{ {decls} return {total}; }}") == sum(range(30))

    def test_else_if_ladder(self, kernel):
        source = """
        u32 main(u64 a, u64 b, u64 c) {
            if (a == 0) { return 10; }
            else if (a == 1) { return 11; }
            else if (a == 2) { return 12; }
            else { return 13; }
        }
        """
        program = compile_c(source)
        verify(program, entry_kinds=("scalar", "scalar", "scalar"))
        vm = VM(kernel)
        for a, expected in ((0, 10), (1, 11), (2, 12), (9, 13)):
            assert vm.run(program, [a, 0, 0], Env(kernel, 4)) == expected

    def test_comments_everywhere(self, kernel):
        source = """
        // leading comment
        u32 main() { /* inline */ u64 x = 1; // trailing
            /* multi
               line */ return x + 1;
        }
        """
        assert run_c(kernel, source) == 2

    def test_empty_function_body_returns_zero(self, kernel):
        assert run_c(kernel, "u32 main() { }") == 0

    def test_expression_statement_side_effects(self, kernel):
        source = "u32 main() { trace_printk(1, 2, 3); return 1; }"
        assert run_c(kernel, source) == 1
