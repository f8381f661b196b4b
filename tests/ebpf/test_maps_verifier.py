"""Tests for eBPF maps and the static verifier."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ebpf.isa import Insn, Op, call, exit_, ldx, mov_imm, mov_reg, stx
from repro.ebpf.maps import ArrayMap, HashMap, LpmTrieMap, MapError, ProgArray
from repro.ebpf.program import Program, ProgramError
from repro.ebpf.verifier import MAX_INSNS, VerifierError, verify
from repro.netsim.addresses import IPv4Addr


class TestHashMap:
    def test_lookup_update_delete(self):
        m = HashMap("h", 4, 8)
        key, value = b"\x01\x02\x03\x04", b"\x00" * 7 + b"\x2a"
        assert m.lookup(key) is None
        m.update(key, value)
        assert m.lookup(key) == value

    def test_key_size_enforced(self):
        m = HashMap("h", 4, 8)
        with pytest.raises(MapError):
            m.lookup(b"\x01")

    def test_value_size_enforced(self):
        m = HashMap("h", 4, 8)
        with pytest.raises(MapError):
            m.update(b"\x01\x02\x03\x04", b"short")

    def test_capacity_enforced(self):
        m = HashMap("h", 1, 1, max_entries=2)
        m.update(b"a", b"x")
        m.update(b"b", b"x")
        with pytest.raises(MapError):
            m.update(b"c", b"x")
        m.update(b"a", b"y")  # replacing existing is fine

    @given(st.binary(min_size=4, max_size=4), st.binary(min_size=8, max_size=8))
    def test_round_trip_property(self, key, value):
        m = HashMap("h", 4, 8)
        m.update(key, value)
        assert m.lookup(key) == value


class TestArrayMap:
    def test_preinitialized_zero(self):
        m = ArrayMap("a", 4, 8)
        assert m.lookup((3).to_bytes(4, "little")) == b"\x00" * 4

    def test_update_and_delete(self):
        m = ArrayMap("a", 4, 8)
        key = (2).to_bytes(4, "little")
        m.update(key, b"\x01\x02\x03\x04")
        assert m.lookup(key) == b"\x01\x02\x03\x04"

    def test_out_of_range(self):
        # Real BPF array lookup returns NULL past max_entries; only writes
        # are rejected.
        m = ArrayMap("a", 4, 2)
        assert m.lookup((5).to_bytes(4, "little")) is None
        with pytest.raises(MapError):
            m.update((5).to_bytes(4, "little"), b"\x01\x02\x03\x04")


class TestArrayMapNullOnOutOfRange:
    def test_lookup_out_of_range_returns_none(self):
        # Regression: real BPF array lookup returns NULL past max_entries;
        # it used to raise MapError, aborting programs on a legal read.
        m = ArrayMap("a", 4, 2)
        assert m.lookup((2).to_bytes(4, "little")) is None
        assert m.lookup((2**32 - 1).to_bytes(4, "little")) is None

    def test_in_range_still_preinitialized_zero(self):
        m = ArrayMap("a", 4, 2)
        assert m.lookup((1).to_bytes(4, "little")) == b"\x00" * 4

    def test_writes_still_reject_out_of_range(self):
        m = ArrayMap("a", 4, 2)
        with pytest.raises(MapError):
            m.update((2).to_bytes(4, "little"), b"\x01" * 4)


class TestLpmTrie:
    def test_longest_prefix_wins(self):
        m = LpmTrieMap("lpm", value_size=4)
        m.update(LpmTrieMap.make_key(8, IPv4Addr.parse("10.0.0.0")), b"aaaa")
        m.update(LpmTrieMap.make_key(24, IPv4Addr.parse("10.1.2.0")), b"bbbb")
        assert m.lookup(LpmTrieMap.make_key(32, IPv4Addr.parse("10.1.2.9"))) == b"bbbb"
        assert m.lookup(LpmTrieMap.make_key(32, IPv4Addr.parse("10.9.9.9"))) == b"aaaa"
        assert m.lookup(LpmTrieMap.make_key(32, IPv4Addr.parse("11.0.0.1"))) is None

    def test_delete(self):
        m = LpmTrieMap("lpm", value_size=4)
        m.update(LpmTrieMap.make_key(16, IPv4Addr.parse("10.1.0.0")), b"aaaa")
        m.delete(LpmTrieMap.make_key(16, IPv4Addr.parse("10.1.0.0")))
        assert m.lookup(LpmTrieMap.make_key(32, IPv4Addr.parse("10.1.0.1"))) is None

    def test_bad_prefix_len(self):
        m = LpmTrieMap("lpm", value_size=4)
        with pytest.raises(MapError):
            m.update(LpmTrieMap.make_key(33, IPv4Addr.parse("10.0.0.0")), b"aaaa")

    # a few shared bases make nested and equal networks common at every length
    BASES = [0x0A000000, 0x0A010203, 0x0A0102FF, 0xC0A80101, 0x80000000, 0]
    addresses = st.sampled_from(BASES) | st.integers(0, 0xFFFFFFFF)
    keys = st.tuples(st.sampled_from([0, 8, 16, 24, 32]) | st.integers(0, 32), addresses)

    @given(st.data(), st.lists(addresses, max_size=6))
    def test_longest_stored_prefix_wins(self, data, probes):
        """Against brute force over a dict of the stored prefixes, with a
        ``max_entries`` small enough to fill. Operations draw from a few
        keys, so that most of them meet a stored prefix."""
        pool = st.sampled_from(data.draw(st.lists(self.keys, min_size=1, max_size=8)))
        ops = data.draw(st.lists(st.tuples(st.booleans(), pool, st.binary(min_size=4, max_size=4)), max_size=40))
        m = LpmTrieMap("lpm", value_size=4, max_entries=3)
        stored = {}  # (length, network) -> value

        def mask(length):
            return (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF

        for is_update, (length, addr), value in ops:
            entry = (length, addr & mask(length))
            key = LpmTrieMap.make_key(length, IPv4Addr(addr))
            if not is_update:
                m.delete(key)
                stored.pop(entry, None)
            elif entry in stored or len(stored) < m.max_entries:
                m.update(key, value)
                stored[entry] = value
            else:
                with pytest.raises(MapError, match="map full"):
                    m.update(key, value)
            points = list(probes) + [network for __, network in stored]
            points += [network | (~mask(length) & 0xFFFFFFFF) for length, network in stored]
            for point in points:
                holding = [(n, v) for (n, network), v in stored.items() if point & mask(n) == network]
                expected = max(holding)[1] if holding else None
                assert m.lookup(LpmTrieMap.make_key(32, IPv4Addr(point))) == expected


class TestProgArrayDevMap:
    def test_prog_array_slots(self):
        pa = ProgArray("jmp", max_entries=4)
        sentinel = object()
        pa.set_prog(2, sentinel)
        assert pa.get_prog(2) is sentinel
        pa.clear(2)
        assert pa.get_prog(2) is None

    def test_prog_array_range(self):
        pa = ProgArray("jmp", max_entries=2)
        with pytest.raises(MapError):
            pa.set_prog(2, object())

    def test_prog_array_not_byte_accessible(self):
        pa = ProgArray("jmp")
        with pytest.raises(MapError):
            pa.lookup(b"\x00" * 4)


def prog(insns, maps=None):
    return Program("t", insns, hook="xdp", maps=maps or [])


class TestVerifier:
    def test_accepts_valid_program(self):
        verify(prog([mov_imm(0, 0), exit_()]))

    def test_rejects_empty(self):
        with pytest.raises(ProgramError):
            Program("t", [], hook="xdp")

    def test_rejects_oversized(self):
        insns = [mov_imm(0, 0)] * (MAX_INSNS + 1) + [exit_()]
        with pytest.raises(VerifierError, match="too many"):
            verify(prog(insns))

    def test_rejects_backward_jump(self):
        insns = [mov_imm(0, 0), Insn(Op.JA, off=-1), exit_()]
        with pytest.raises(VerifierError, match="backward"):
            verify(prog(insns))

    def test_rejects_out_of_range_target(self):
        insns = [mov_imm(0, 0), Insn(Op.JA, off=5), exit_()]
        with pytest.raises(VerifierError, match="out of range"):
            verify(prog(insns))

    def test_rejects_fall_off_end(self):
        insns = [mov_imm(0, 0), mov_imm(1, 1)]
        with pytest.raises(VerifierError, match="fall off"):
            verify(prog(insns))

    def test_rejects_write_to_r10(self):
        insns = [mov_imm(10, 0), mov_imm(0, 0), exit_()]
        with pytest.raises(VerifierError, match="frame pointer"):
            verify(prog(insns))

    def test_rejects_bad_access_size(self):
        insns = [ldx(0, 1, 0, 3), exit_()]
        with pytest.raises(VerifierError, match="size"):
            verify(prog(insns))

    def test_rejects_unknown_helper(self):
        insns = [call(999), exit_()]
        with pytest.raises(VerifierError, match="helper"):
            verify(prog(insns))

    def test_rejects_unresolved_map(self):
        insns = [Insn(Op.LD_MAP, dst=1, imm=0), mov_imm(0, 0), exit_()]
        with pytest.raises(VerifierError, match="map"):
            verify(prog(insns))

    def test_rejects_stack_out_of_frame(self):
        insns = [Insn(Op.STX, dst=10, src=1, off=-1024, imm=8), mov_imm(0, 0), exit_()]
        with pytest.raises(VerifierError, match="stack"):
            verify(prog(insns))

    def test_rejects_positive_stack_offset(self):
        insns = [Insn(Op.ST_IMM, dst=10, src=8, off=8, imm=0), mov_imm(0, 0), exit_()]
        with pytest.raises(VerifierError, match="stack"):
            verify(prog(insns))

    def test_rejects_uninitialized_read(self):
        insns = [mov_reg(0, 5), exit_()]
        with pytest.raises(VerifierError, match="uninitialized"):
            verify(prog(insns))

    def test_rejects_uninitialized_r0_at_exit(self):
        insns = [exit_()]
        with pytest.raises(VerifierError, match="r0"):
            verify(prog(insns), entry_regs=(1,))

    def test_join_requires_both_paths_initialized(self):
        # r4 is set on only one branch, then read after the join
        insns = [
            Insn(Op.JEQ_IMM, dst=1, imm=0, off=1),
            mov_imm(4, 1),
            mov_reg(0, 4),
            exit_(),
        ]
        with pytest.raises(VerifierError, match="r4"):
            verify(prog(insns))

    def test_join_accepts_both_paths_initialized(self):
        insns = [
            Insn(Op.JEQ_IMM, dst=1, imm=0, off=2),
            mov_imm(4, 1),
            Insn(Op.JA, off=1),
            mov_imm(4, 2),
            mov_reg(0, 4),
            exit_(),
        ]
        verify(prog(insns))

    def test_call_clobbers_arg_regs(self):
        from repro.ebpf.helpers import HELPER_IDS

        insns = [
            mov_imm(1, 1),
            call(HELPER_IDS["trace_printk"]),
            mov_reg(0, 1),  # r1 no longer initialized
            exit_(),
        ]
        with pytest.raises(VerifierError, match="r1"):
            verify(prog(insns))

    def test_unreachable_code_ignored(self):
        insns = [
            mov_imm(0, 0),
            exit_(),
            mov_reg(0, 9),  # unreachable: must not trip the init check
            exit_(),
        ]
        verify(prog(insns))

    def test_forward_ja_zero_is_noop(self):
        # JA off=0 jumps to pc+1 — a harmless no-op, accepted (the old
        # structural pass had a dead re-check singling this shape out)
        insns = [mov_imm(0, 0), Insn(Op.JA, off=0), exit_()]
        verify(prog(insns))


class TestHelperRegistry:
    """HELPERS / HELPER_IDS / HELPER_SIGS and the capability tiers must
    stay mutually consistent."""

    def test_ids_are_a_bijection_over_the_registry(self):
        from repro.ebpf.helpers import HELPERS, HELPER_IDS

        assert set(HELPER_IDS.values()) == set(HELPERS)
        assert len(set(HELPER_IDS.values())) == len(HELPER_IDS)
        for name, hid in HELPER_IDS.items():
            assert HELPERS[hid][0] == name

    def test_capability_tiers_partition_the_registry(self):
        from repro.ebpf.helpers import (
            BASELINE_HELPERS,
            HELPER_IDS,
            LINUXFP_HELPERS,
            MAINLINE_HELPERS,
        )

        assert MAINLINE_HELPERS | LINUXFP_HELPERS | BASELINE_HELPERS == set(HELPER_IDS)
        assert not MAINLINE_HELPERS & LINUXFP_HELPERS
        assert not MAINLINE_HELPERS & BASELINE_HELPERS
        assert not LINUXFP_HELPERS & BASELINE_HELPERS

    def test_every_helper_declares_a_signature(self):
        from repro.ebpf.helpers import HELPERS, HELPER_IDS, HELPER_SIGS

        assert set(HELPER_SIGS) == set(HELPERS)
        for hid, sig in HELPER_SIGS.items():
            assert HELPER_IDS[sig.name] == hid

    def test_ret_ranges_are_sound_for_map_helpers(self):
        from repro.ebpf.helpers import HELPER_SIGS

        for hid in (2, 3):
            assert HELPER_SIGS[hid].ret == (0, 1)


class TestOneAnalysis:
    """A program is analyzed once: the first successful hook-ABI analysis
    is kept on it and read by every later verify, lint run and JIT compile,
    while the ``verify`` fault site still fires on every verify call."""

    def test_verify_keeps_and_returns_one_analysis(self):
        from repro.ebpf.analysis.lint import lint_program
        from repro.ebpf.jit import compile_program
        from repro.testing import faults

        program = prog([mov_imm(0, 2), exit_()])
        with faults.injected(seed=0) as inj:
            first = verify(program)
            assert program.analysis is first
            assert verify(program) is first
            assert lint_program(program) == []
            assert compile_program(program)[0] is not None
        assert program.analysis is first
        assert inj.evaluated["verify"] == 2  # lint and the JIT fire no fault

    def test_rejected_program_keeps_nothing(self):
        program = prog([ldx(0, 1, 0, 1), exit_()])  # unguarded packet read
        for _ in range(2):
            with pytest.raises(VerifierError, match="packet access"):
                verify(program)
            assert program.analysis is None

    def test_other_entry_abi_is_analyzed_afresh(self):
        program = prog([mov_reg(0, 1), exit_()])
        scalar_abi = (1,), ("scalar",)
        first = verify(program, *scalar_abi)
        assert program.analysis is None
        assert verify(program, *scalar_abi) is not first
        with pytest.raises(VerifierError, match="exit"):
            verify(program)  # under the hook ABI r1 is the packet pointer


def guarded(min_len, body):
    """Prefix: punt (return 0) unless len >= min_len, then run ``body``."""
    return [
        Insn(Op.JGE_IMM, dst=2, imm=min_len, off=2),
        mov_imm(0, 0),
        exit_(),
    ] + body


class TestAdversarialCorpus:
    """Unsafe shapes the range-tracking pass must reject, each with a
    precise structured diagnostic (and a near-identical safe twin that
    must be accepted, to pin the rejection on the actual defect)."""

    def test_oob_packet_read_past_data_end(self):
        # len >= 34 is proven, but the read touches bytes [34, 36)
        insns = guarded(34, [ldx(0, 1, 34, 2), exit_()])
        with pytest.raises(VerifierError, match="packet access \\[34, 36\\)") as exc_info:
            verify(prog(insns))
        assert exc_info.value.code == "packet-out-of-bounds"
        assert exc_info.value.pc == 3
        safe = guarded(34, [ldx(0, 1, 32, 2), exit_()])
        verify(prog(safe))

    def test_unguarded_packet_read_names_the_guarantee(self):
        insns = [ldx(0, 1, 0, 1), exit_()]
        with pytest.raises(VerifierError, match="guaranteed length 0"):
            verify(prog(insns))

    def test_pointer_leaks_into_scalar_op(self):
        insns = [
            Insn(Op.MUL_IMM, dst=1, imm=2),  # packet pointer * 2
            mov_imm(0, 0),
            exit_(),
        ]
        with pytest.raises(VerifierError, match="pointer") as exc_info:
            verify(prog(insns))
        assert exc_info.value.code == "pointer-leak"

    def test_pointer_cannot_reach_r0_at_exit(self):
        insns = [mov_reg(0, 1), exit_()]
        with pytest.raises(VerifierError, match="exit") as exc_info:
            verify(prog(insns))
        assert exc_info.value.code == "pointer-leak"

    def test_spill_fill_round_trip(self):
        # spilling the packet pointer and filling it back preserves its
        # type and bounds facts (the guard dominates the post-fill load)
        body = [
            stx(10, 1, -8, 8),   # spill pkt ptr
            ldx(3, 10, -8, 8),   # fill into r3
            ldx(0, 3, 0, 1),     # deref: len >= 2 proven
            exit_(),
        ]
        verify(prog(guarded(2, body)))

    def test_narrow_spill_of_pointer_rejected(self):
        body = [stx(10, 1, -8, 4), mov_imm(0, 0), exit_()]
        with pytest.raises(VerifierError, match="spill") as exc_info:
            verify(prog(guarded(2, body)))
        assert exc_info.value.code == "pointer-spill"

    def test_clobbered_spill_does_not_fill_a_pointer(self):
        # a narrow scalar store over the spilled slot destroys the fat
        # pointer; the fill must come back as a scalar, not a pointer
        body = [
            stx(10, 1, -8, 8),                       # spill pkt ptr
            Insn(Op.ST_IMM, dst=10, src=8, off=-8, imm=7),  # overwrite slot
            ldx(3, 10, -8, 8),                       # fill: now a scalar
            ldx(0, 3, 0, 1),                         # deref through scalar
            exit_(),
        ]
        with pytest.raises(VerifierError, match="non-pointer") as exc_info:
            verify(prog(guarded(2, body)))
        assert exc_info.value.code == "bad-access"

    def test_helper_scalar_where_pointer_required(self):
        insns = [
            mov_imm(1, 5),
            mov_imm(2, 7),  # fib_lookup arg 2 must point at a result buffer
            call(6),
            mov_imm(0, 0),
            exit_(),
        ]
        with pytest.raises(VerifierError, match="fib_lookup.*must be a pointer") as exc_info:
            verify(prog(insns))
        assert exc_info.value.code == "helper-signature"

    def test_helper_buffer_too_small(self):
        insns = [
            mov_imm(1, 5),
            mov_reg(2, 10),
            Insn(Op.ADD_IMM, dst=2, imm=-8),  # 8 bytes left; fib needs 18
            call(6),
            mov_imm(0, 0),
            exit_(),
        ]
        with pytest.raises(VerifierError, match="fib_lookup") as exc_info:
            verify(prog(insns))
        assert exc_info.value.code == "stack-out-of-bounds"

    def test_structured_diagnostics_round_trip(self):
        insns = [ldx(0, 1, 0, 4), exit_()]
        with pytest.raises(VerifierError) as exc_info:
            verify(prog(insns))
        detail = exc_info.value.to_dict()
        assert detail["program"] == "t"
        assert detail["pc"] == 0
        assert detail["code"] == "packet-out-of-bounds"
        assert "ldx" in detail["insn"]


class TestMapHelperFailSoft:
    """Map failure modes the verifier cannot see statically (full map, bad
    LPM prefix, array index out of range) must surface to programs as error
    codes, never as exceptions — otherwise an accepted program could still
    blow up the VM and the verifier's safety contract would be a lie."""

    @staticmethod
    def _env():
        from repro.ebpf.vm import Env
        from repro.kernel import Kernel

        kernel = Kernel("t")
        return Env(kernel, 4)

    @staticmethod
    def _buf(data):
        from repro.ebpf.memory import Pointer, Region

        return Pointer(Region("b", bytearray(data)), 0)

    def test_full_map_update_returns_error_code(self):
        from repro.ebpf.helpers import bpf_map_update_elem

        m = HashMap("h", 1, 1, max_entries=1)
        m.update(b"a", b"x")
        assert bpf_map_update_elem(self._env(), [m, self._buf(b"b"), self._buf(b"y")]) == 1
        assert bpf_map_update_elem(self._env(), [m, self._buf(b"a"), self._buf(b"y")]) == 0

    def test_array_index_out_of_range_fails_soft(self):
        from repro.ebpf.helpers import bpf_map_read, bpf_map_update_elem

        m = ArrayMap("a", 4, 4)
        big = (99).to_bytes(4, "little")
        assert bpf_map_read(self._env(), [m, self._buf(big), self._buf(b"\x00" * 4)]) == 0
        assert bpf_map_update_elem(self._env(), [m, self._buf(big), self._buf(b"\x00" * 4)]) == 1

    def test_bad_lpm_prefix_fails_soft(self):
        from repro.ebpf.helpers import bpf_map_read, bpf_map_update_elem

        m = LpmTrieMap("lpm", 4)
        bad_key = (77).to_bytes(4, "little") + b"\x0a\x00\x00\x01"  # prefix 77 > 32
        assert bpf_map_read(self._env(), [m, self._buf(bad_key), self._buf(b"\x00" * 4)]) == 0
        assert bpf_map_update_elem(self._env(), [m, self._buf(bad_key), self._buf(b"\x00" * 4)]) == 1

    def test_fault_injection_absorbed_by_helper(self):
        # inside a program, an injected map fault is an error *code* (the
        # program degrades to PASS) with the failure counted on the map —
        # never an exception escaping the hook
        from repro.ebpf.helpers import bpf_map_update_elem
        from repro.testing import faults

        m = HashMap("h", 1, 1)
        with faults.injected() as injector:
            injector.arm("map_update", count=1)
            assert bpf_map_update_elem(self._env(), [m, self._buf(b"a"), self._buf(b"x")]) == 1
        assert m.update_errors == 1

    def test_fault_injection_still_propagates_to_control_plane(self):
        # direct map.update() calls (deployer seeding, tests) still see the
        # fault: the self-healing suites depend on it
        from repro.testing import faults

        m = HashMap("h", 1, 1)
        with faults.injected() as injector:
            injector.arm("map_update", count=1)
            with pytest.raises(faults.InjectedFault):
                m.update(b"a", b"x")
