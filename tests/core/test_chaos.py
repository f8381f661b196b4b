"""Chaos suite: random faults at random sites during churn.

The three invariants the self-healing control plane promises (ISSUE:
robustness archetype), checked under Hypothesis-driven fault schedules:

1. **No unhandled exception** — whatever fails inside compile / verify /
   load / prog-array swap / map update / netlink delivery, neither the
   controller nor the datapath ever lets an exception reach the caller.
2. **Packet-for-packet agreement with the plain kernel** — degradation is
   always to something correct (last-good only while semantically current,
   otherwise the slow path), never to something stale.
3. **Reconvergence** — once faults stop, bounded clock advancement plus the
   retry timer brings every interface back to the fast path and
   ``health()`` back to ok.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Controller
from repro.testing import faults
from tests.core.test_equivalence_properties import (
    _apply_config_op,
    _ip_payloads,
    build_dut,
    drive,
    packet_strategy,
)

chaos_op = st.one_of(
    st.tuples(st.just("pkt"), packet_strategy),
    st.tuples(st.just("rule_add"), st.integers(min_value=1, max_value=100)),
    st.tuples(st.just("rule_del"), st.just(0)),
    st.tuples(st.just("route_shadow"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("route_unshadow"), st.integers(min_value=0, max_value=7)),
)


def build_pair():
    """A plain DUT and an accelerated DUT (watchdog on)."""
    slow_topo, slow_out = build_dut([], accelerated=False)
    fast_topo, fast_out = build_dut([], accelerated=False)
    controller = Controller(fast_topo.dut, hook="xdp", watchdog_every=5)
    controller.start()
    fast_topo.prewarm_neighbors()
    return slow_topo, slow_out, fast_topo, fast_out, controller


def run_chaos(ops, controller, slow_topo, slow_out, fast_topo, fast_out):
    """Apply ops to both DUTs, asserting per-packet agreement throughout."""
    slow_handles, fast_handles = [], []
    for op, arg in ops:
        if op == "pkt":
            assert drive(slow_topo, slow_out, [arg]) == drive(fast_topo, fast_out, [arg])
        else:
            _apply_config_op(slow_topo, slow_handles, op, arg)
            _apply_config_op(fast_topo, fast_handles, op, arg)
            # a dropped notification is not silent: the socket's overrun
            # flag is set, and the next tick answers with a full resync
            slow_topo.clock.advance(1_000_000)
            fast_topo.clock.advance(1_000_000)
            controller.tick()


def reconverge(controller, slow_topo, fast_topo, rounds=12):
    """Advance past every retry/hold-off timer until health() is ok."""
    for _ in range(rounds):
        slow_topo.clock.advance(6_000_000_000)
        fast_topo.clock.advance(6_000_000_000)
        controller.tick()
        if controller.health()["ok"]:
            return True
    return False


class TestChaos:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        ops=st.lists(chaos_op, min_size=2, max_size=10),
        seed=st.integers(min_value=0, max_value=2**16),
        probability=st.sampled_from([0.05, 0.25, 0.6]),
    )
    def test_agreement_and_reconvergence_under_random_faults(self, ops, seed, probability):
        slow_topo, slow_out, fast_topo, fast_out, controller = build_pair()
        with faults.injected(seed=seed) as inj:
            inj.arm_everything(probability=probability)
            inj.arm("netlink_deliver", probability=probability / 2, action="dup")
            run_chaos(ops, controller, slow_topo, slow_out, fast_topo, fast_out)
        # faults stopped: the control plane must heal itself
        assert reconverge(controller, slow_topo, fast_topo), controller.health()
        assert controller.deployer.deployed["eth0"].current is not None
        # and the healed fast path must still agree with the plain kernel
        probes = [(0x0A000001 + i, i, "udp", 7 + i * 13, 64) for i in range(4)]
        assert drive(slow_topo, slow_out, probes) == drive(fast_topo, fast_out, probes)
        assert _ip_payloads(slow_out) == _ip_payloads(fast_out)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        ops=st.lists(chaos_op, min_size=2, max_size=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_survives_near_total_failure(self, ops, seed):
        """probability 0.9: almost every control-plane action fails. The
        datapath must still agree with plain Linux on every packet."""
        slow_topo, slow_out, fast_topo, fast_out, controller = build_pair()
        with faults.injected(seed=seed) as inj:
            inj.arm_everything(probability=0.9)
            run_chaos(ops, controller, slow_topo, slow_out, fast_topo, fast_out)
        assert reconverge(controller, slow_topo, fast_topo), controller.health()
        assert _ip_payloads(slow_out) == _ip_payloads(fast_out)

    def test_fixed_seed_smoke(self):
        """A deterministic, Hypothesis-free schedule (fast CI sanity)."""
        ops = [
            ("rule_add", 40),
            ("pkt", (0x0A000002, 1, "udp", 40, 64)),
            ("route_shadow", 1),
            ("pkt", (0x0A000003, 1, "udp", 7, 64)),
            ("rule_del", 0),
            ("pkt", (0x0A000004, 2, "tcp", 40, 64)),
        ]
        slow_topo, slow_out, fast_topo, fast_out, controller = build_pair()
        with faults.injected(seed=1234) as inj:
            inj.arm_everything(probability=0.5)
            run_chaos(ops, controller, slow_topo, slow_out, fast_topo, fast_out)
        assert reconverge(controller, slow_topo, fast_topo), controller.health()
        assert _ip_payloads(slow_out) == _ip_payloads(fast_out)
