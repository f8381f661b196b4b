"""Tests for the simulated clock, cost model, and profiler."""

import math
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ebpf.isa import exit_, mov_imm
from repro.ebpf.memory import Pointer, Region
from repro.ebpf.program import Program
from repro.ebpf.vm import DEFAULT_INSN_LIMIT, Env
from repro.kernel import Kernel
from repro.measure.k8s_bench import container_cost_model
from repro.netsim.clock import FS_PER_NS, Clock, to_fs
from repro.netsim.cost import CostModel, DEFAULT_COSTS
from repro.netsim.profiler import Profiler

COST_MODELS = {"default": CostModel, "container": container_cost_model}
NOT_NS = {"line_rate_gbps", "framing_overhead_bytes", "vpp_vector_size"}


def charge_amounts(model):
    """Each cost of ``model`` in ns, plus VPP's per-packet share of a vector."""
    costs = COST_MODELS[model]()
    amounts = {f.name: getattr(costs, f.name) for f in fields(costs) if f.name not in NOT_NS}
    amounts["vpp_vector_share"] = costs.vpp_per_vector_overhead / costs.vpp_vector_size
    return amounts


AMOUNTS = {model: charge_amounts(model) for model in COST_MODELS}
# the decimal each float stands for: no cost has more than 6 digits after the point
EXACT = {
    model: {name: Fraction(ns).limit_denominator(10**6) for name, ns in amounts.items()}
    for model, amounts in AMOUNTS.items()
}


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now_ns == 0

    def test_advance_accumulates(self):
        c = Clock()
        c.advance(100)
        c.advance(50.4)
        assert c.now_ns == 150

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            Clock().advance(-1)

    def test_advance_to_never_goes_backwards(self):
        c = Clock()
        c.advance(1000)
        c.advance_to(500)
        assert c.now_ns == 1000
        c.advance_to(2000)
        assert c.now_ns == 2000

    def test_unit_views(self):
        c = Clock()
        c.advance(2_500_000_000)
        assert c.now_s == pytest.approx(2.5)
        assert c.now_us == pytest.approx(2.5e6)

    def test_reset(self):
        c = Clock()
        c.advance(10)
        c.reset()
        assert c.now_ns == 0


class TestExactSums:
    def test_every_cost_is_whole_femtoseconds(self):
        for model, exact in EXACT.items():
            for name, ns in exact.items():
                assert (ns * FS_PER_NS).denominator == 1, (model, name, ns)

    @settings(max_examples=300, deadline=None)
    @given(
        model=st.sampled_from(sorted(COST_MODELS)),
        picks=st.lists(st.tuples(st.sampled_from(sorted(AMOUNTS["default"])), st.integers(1, 16)),
                       min_size=1, max_size=30),
        cuts=st.sets(st.integers(1, 29)),
    )
    @example(model="default", picks=[("ebpf_insn", 1)] * 10, cuts=set())
    @example(model="default", picks=[("ebpf_insn", 3)], cuts=set())
    @example(model="default", picks=[("vpp_vector_share", 1)], cuts=set())
    def test_any_grouping_charges_the_same(self, model, picks, cuts):
        """The same charges, one by one and summed in random groups, leave
        the same clock and busy time: the exact sum, floored to ns."""
        charges = [count * AMOUNTS[model][name] for name, count in picks]
        bounds = [0] + sorted(c for c in cuts if c < len(charges)) + [len(charges)]
        groups = [math.fsum(charges[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        readings = []
        for amounts in (charges, groups):
            kernel = Kernel("exact-sums")
            with kernel.cpus.on(0):
                for ns in amounts:
                    kernel.charge_ns(ns)
            readings.append((kernel.clock.now_ns, kernel.cpus.busy_ns))
        exact = sum(count * EXACT[model][name] for name, count in picks)
        assert readings[0] == readings[1] == (math.floor(exact), [float(exact)])

    @settings(max_examples=300, deadline=None)
    @given(model=st.sampled_from(sorted(COST_MODELS)), n=st.integers(0, DEFAULT_INSN_LIMIT))
    @example(model="default", n=DEFAULT_INSN_LIMIT)
    @example(model="container", n=DEFAULT_INSN_LIMIT)
    def test_instruction_counts_charge_the_rounded_sum(self, model, n):
        """The executors charge n instructions as ``n * to_fs(ebpf_insn)``.
        For the cost models in use that is ``to_fs(n * ebpf_insn)``, what
        one ``charge_ns`` of the count charged, for every count a run can
        reach."""
        insn_ns = COST_MODELS[model]().ebpf_insn
        assert n * to_fs(insn_ns) == to_fs(n * insn_ns)


class TestCostModel:
    def test_line_rate_small_packets(self):
        # 64B + 20B framing at 25Gbps ≈ 37.2 Mpps
        pps = DEFAULT_COSTS.line_rate_pps(64)
        assert pps == pytest.approx(37.2e6, rel=0.01)

    def test_line_rate_mtu_packets(self):
        pps = DEFAULT_COSTS.line_rate_pps(1514)
        assert pps == pytest.approx(25e9 / (1534 * 8), rel=1e-6)

    def test_copy_is_independent(self):
        c = DEFAULT_COSTS.copy()
        c.fib_lookup = 1.0
        assert DEFAULT_COSTS.fib_lookup != 1.0

    def test_calibration_linux_forwarding_near_1mpps(self):
        """The slow-path stage costs must sum to ~1000ns (≈1 Mpps/core)."""
        c = DEFAULT_COSTS
        total = (
            c.driver_rx + c.skb_alloc + c.netif_receive + c.ip_rcv + c.fib_lookup
            + c.ip_forward + c.neigh_lookup + c.ip_output + c.dev_queue_xmit + c.driver_tx
        )
        assert 900 <= total <= 1500

    def test_calibration_fast_path_ratio(self):
        """XDP path budget must land near 1.77x Linux (paper's 77% speedup)."""
        c = DEFAULT_COSTS
        linux_ns = 1000.0
        # dispatcher entry + tail call + ~170 executed insns + helpers
        xdp_ns = (
            c.driver_rx + c.ebpf_prog_entry + c.ebpf_tail_call + 170 * c.ebpf_insn
            + c.helper_fib_lookup + c.xdp_redirect + c.driver_tx
        )
        assert 1.5 <= linux_ns / xdp_ns <= 2.2


class TestFsTable:
    """Charges read each cost's fs from the model's table, which follows
    every write to the model."""

    @staticmethod
    def charged(kernel, charge):
        before = kernel.clock._fs
        charge()
        return kernel.clock._fs - before

    @staticmethod
    def run_program(kernel):
        program = Program(name="ret", insns=[mov_imm(0, 2), exit_()], hook="xdp")
        args = [Pointer(Region("pkt", bytearray(64)), 0), 64, 1]
        assert kernel.jit.execute(program, args, Env(kernel, 4)) == (2, 2)

    @pytest.mark.parametrize("model", sorted(COST_MODELS))
    def test_a_write_reaches_the_next_charge(self, model):
        kernel = Kernel("fs-table", costs=COST_MODELS[model]())
        costs = kernel.costs
        assert self.charged(kernel, lambda: kernel.costs_charge("fib_lookup")) == to_fs(costs.fib_lookup)
        run = self.charged(kernel, lambda: self.run_program(kernel))
        assert run == to_fs(costs.ebpf_prog_entry) + 2 * to_fs(costs.ebpf_insn)
        costs.fib_lookup = costs.fib_lookup * 3 + 0.25
        costs.ebpf_prog_entry = costs.ebpf_prog_entry + 7
        costs.ebpf_insn = costs.ebpf_insn * 2 + 0.1
        assert self.charged(kernel, lambda: kernel.costs_charge("fib_lookup")) == to_fs(costs.fib_lookup)
        run = self.charged(kernel, lambda: self.run_program(kernel))
        assert run == to_fs(costs.ebpf_prog_entry) + 2 * to_fs(costs.ebpf_insn)
        assert costs.fs["ebpf_insn"] == to_fs(costs.ebpf_insn)

    @pytest.mark.parametrize("model", sorted(COST_MODELS))
    def test_copy_equals_its_source(self, model):
        costs = COST_MODELS[model]()
        costs.fs["fib_lookup"]
        copy = costs.copy()
        assert copy == costs
        copy.fib_lookup += 1
        assert copy.fs["fib_lookup"] == to_fs(costs.fib_lookup + 1)
        assert costs.fs["fib_lookup"] == to_fs(costs.fib_lookup)

    def test_a_negative_cost_raises_where_it_is_charged(self):
        kernel = Kernel("fs-table")
        kernel.costs_charge("fib_lookup")
        kernel.costs.fib_lookup = -1
        before = kernel.clock._fs
        for __ in range(2):
            with pytest.raises(ValueError):
                kernel.costs_charge("fib_lookup")
        assert kernel.clock._fs == before


class TestProfiler:
    def test_disabled_profiler_records_nothing(self):
        clock = Clock()
        prof = Profiler(clock, enabled=False)
        with prof.frame("a"):
            clock.advance(100)
        assert prof.samples == {}

    def test_frame_exits_on_an_exception(self):
        clock = Clock()
        prof = Profiler(clock, enabled=True)
        observed = []
        prof.stage_observer = lambda name, ns: observed.append((name, ns))
        with pytest.raises(ValueError):
            with prof.frame("rx"):
                clock.advance(10)
                raise ValueError("malformed")
        assert observed == [("rx", 10)]
        assert prof.samples == {("rx",): 10}
        with prof.frame("next"):
            clock.advance(1)
        assert prof.samples[("next",)] == 1

    def test_one_frame_per_stage_name(self):
        prof = Profiler(Clock())
        assert prof.frame("ip_rcv") is prof.frame("ip_rcv")
        assert prof.frame("ip_rcv") is not prof.frame("ip_forward")

    def test_a_stage_nested_in_itself(self):
        """A decapsulated frame re-enters a stage inside its outer frame's
        entry: each exit reports the time since its own entry."""
        clock = Clock()
        prof = Profiler(clock, enabled=True)
        observed = []
        prof.stage_observer = lambda name, ns: observed.append((name, ns))
        with prof.frame("ip_rcv"):
            clock.advance(10)
            with prof.frame("ip_rcv"):
                clock.advance(5)
            clock.advance(1)
        assert observed == [("ip_rcv", 5), ("ip_rcv", 16)]
        assert prof.samples == {("ip_rcv",): 16, ("ip_rcv", "ip_rcv"): 5}

    def test_elapsed_is_the_difference_of_floored_readings(self):
        clock = Clock()
        prof = Profiler(clock)
        observed = []
        prof.stage_observer = lambda name, ns: observed.append((name, ns))
        clock.advance(0.6)
        with prof.frame("fpm"):
            clock.advance(0.6)  # 0.6 ns → 1.2 ns: now_ns reads 0, then 1
        with prof.frame("fpm"):
            clock.advance(0.6)  # 1.2 ns → 1.8 ns: both read 1, no record
        assert observed == [("fpm", 1)]

    def test_nested_frames(self):
        clock = Clock()
        prof = Profiler(clock, enabled=True)
        with prof.frame("rx"):
            clock.advance(100)
            with prof.frame("ip_rcv"):
                clock.advance(50)
        assert prof.samples[("rx",)] == 150
        assert prof.samples[("rx", "ip_rcv")] == 50

    def test_self_weights_subtract_children(self):
        clock = Clock()
        prof = Profiler(clock, enabled=True)
        with prof.frame("rx"):
            clock.advance(100)
            with prof.frame("ip_rcv"):
                clock.advance(50)
        weights = prof.self_weights()
        assert weights[("rx",)] == 100
        assert weights[("rx", "ip_rcv")] == 50

    def test_collapsed_output_format(self):
        clock = Clock()
        prof = Profiler(clock, enabled=True)
        with prof.frame("a"):
            with prof.frame("b"):
                clock.advance(10)
        lines = prof.collapsed()
        assert lines == ["a;b 10"]

    def test_hottest_aggregates_leaves(self):
        clock = Clock()
        prof = Profiler(clock, enabled=True)
        for __ in range(3):
            with prof.frame("rx"):
                with prof.frame("fib_lookup"):
                    clock.advance(120)
        assert prof.hottest(1) == [("fib_lookup", 360)]

    def test_reset(self):
        clock = Clock()
        prof = Profiler(clock, enabled=True)
        with prof.frame("x"):
            clock.advance(5)
        prof.reset()
        assert prof.samples == {}

    def test_reset_inside_nested_frame_is_safe(self):
        """Regression: reset() mid-packet used to clear the live frame stack,
        so the enclosing frame() exits popped from an empty list."""
        clock = Clock()
        prof = Profiler(clock, enabled=True)
        with prof.frame("rx"):
            clock.advance(10)
            with prof.frame("ip_rcv"):
                clock.advance(5)
                prof.reset()  # must not corrupt the in-flight chain
                clock.advance(5)
            clock.advance(10)
        # samples taken before the reset are gone; frames that closed after
        # it recorded cleanly against the preserved stack
        assert prof.samples[("rx",)] == 30
        assert prof.samples[("rx", "ip_rcv")] == 10
        # and the stack fully unwound: a fresh top-level frame stands alone
        with prof.frame("next"):
            clock.advance(1)
        assert ("next",) in prof.samples

    def test_many_siblings_subtract_from_parent(self):
        clock = Clock()
        prof = Profiler(clock, enabled=True)
        with prof.frame("parent"):
            clock.advance(10)
            for i in range(50):
                with prof.frame(f"child{i}"):
                    clock.advance(2)
        weights = prof.self_weights()
        assert weights[("parent",)] == 10
        assert all(weights[("parent", f"child{i}")] == 2 for i in range(50))
        assert prof.total_ns() == 110

    def test_deep_stack_self_weights(self):
        """A single deep chain is the worst case for the old O(n²) all-pairs
        prefix scan: every stack is a prefix of every deeper one. The one-pass
        implementation must stay fast AND produce exact self times."""
        import contextlib
        import time

        clock = Clock()
        prof = Profiler(clock, enabled=True)
        depth = 2000
        with contextlib.ExitStack() as frames:
            for i in range(depth):
                frames.enter_context(prof.frame(f"f{i}"))
                clock.advance(1)
        start = time.perf_counter()
        weights = prof.self_weights()
        elapsed = time.perf_counter() - start
        assert len(weights) == depth
        # frame i runs from t=i until the common teardown at t=depth and has
        # exactly one child charged depth-i-1 ns, so every self time is 1 ns
        assert all(w == 1 for w in weights.values())
        assert prof.total_ns() == depth
        # the quadratic scan took tens of seconds at this depth; linear is ms
        assert elapsed < 2.0
