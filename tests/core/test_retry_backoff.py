"""Deployer retry/backoff coverage: exponential growth to the cap,
give-up → quarantine under persistent seeded faults, recovery after the
hold-off, and the bounded deduplicating incident log."""

from repro.core import Controller
from repro.core.controller import (
    GIVE_UP_ATTEMPTS,
    GIVE_UP_HOLDOFF_NS,
    INCIDENT_DEDUP_WINDOW,
    MAX_INCIDENTS,
    RETRY_BASE_NS,
    RETRY_CAP_NS,
)
from repro.measure.topology import LineTopology
from repro.testing import faults


def failing_controller(inj):
    topo = LineTopology()
    topo.install_prefixes(3)
    topo.prewarm_neighbors()
    inj.arm("prog_array")  # every swap fails while armed
    controller = Controller(topo.dut, hook="xdp")
    controller.start()
    return topo, controller


def tick_past_backoff(topo, controller, times=1):
    for _ in range(times):
        topo.clock.advance(RETRY_CAP_NS + 1)
        controller.tick()


class TestExponentialBackoff:
    def test_delay_doubles_then_caps(self):
        with faults.injected(seed=3) as inj:
            topo, controller = failing_controller(inj)
            seen = []
            for _ in range(10):
                delay = controller._retry_at_ns - topo.clock.now_ns
                seen.append(delay)
                if controller._retry_attempts >= GIVE_UP_ATTEMPTS:
                    break
                tick_past_backoff(topo, controller)
            # strictly doubling from the base...
            for i, delay in enumerate(seen[:-1]):
                assert delay == min(RETRY_BASE_NS * (2**i), RETRY_CAP_NS)
            # ...and never beyond the cap
            assert max(seen) <= RETRY_CAP_NS

    def test_attempts_stop_growing_at_give_up(self):
        with faults.injected(seed=3) as inj:
            topo, controller = failing_controller(inj)
            tick_past_backoff(topo, controller, times=12)
            assert controller._retry_attempts == GIVE_UP_ATTEMPTS


class TestGiveUpQuarantine:
    def test_persistent_failure_lands_in_quarantine(self):
        with faults.injected(seed=3) as inj:
            topo, controller = failing_controller(inj)
            assert controller.deployer.failures  # degraded, still retrying
            tick_past_backoff(topo, controller, times=GIVE_UP_ATTEMPTS + 2)
            health = controller.health()
            assert not controller.deployer.failures  # no longer hammering
            assert health["quarantined"]  # honest containment
            assert not health["ok"]
            kinds = [i.kind for i in controller.incidents]
            assert "retry-give-up" in kinds

    def test_quarantine_reason_names_the_failure(self):
        with faults.injected(seed=3) as inj:
            topo, controller = failing_controller(inj)
            tick_past_backoff(topo, controller, times=GIVE_UP_ATTEMPTS + 2)
            for q in controller.deployer.quarantined.values():
                assert f"gave up after {GIVE_UP_ATTEMPTS} attempts" in q.reason

    def test_recovery_after_holdoff_restores_fast_path(self):
        with faults.injected(seed=3) as inj:
            topo, controller = failing_controller(inj)
            tick_past_backoff(topo, controller, times=GIVE_UP_ATTEMPTS + 2)
            assert controller.health()["quarantined"]
        # fault gone: the hold-off expires and the retry succeeds
        topo.clock.advance(GIVE_UP_HOLDOFF_NS + RETRY_CAP_NS)
        assert controller.tick() is True
        health = controller.health()
        assert health["ok"]
        assert not health["quarantined"]
        assert controller._retry_attempts == 0  # success resets the streak
        assert controller.deployer.deployed["eth0"].current is not None

    def test_slow_path_serves_throughout(self):
        from repro.netsim.packet import make_udp

        with faults.injected(seed=3) as inj:
            topo, controller = failing_controller(inj)
            tick_past_backoff(topo, controller, times=GIVE_UP_ATTEMPTS + 2)
            delivered = []
            topo.sink_eth.nic.attach(lambda f, q: delivered.append(f))
            frame = make_udp(
                topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", topo.flow_destination(0, 3), dport=7
            ).to_bytes()
            topo.dut_in.nic.receive_from_wire(frame)
            assert len(delivered) == 1  # quarantined != broken


class TestIncidentDedup:
    def plain_controller(self):
        topo = LineTopology()
        topo.install_prefixes(2)
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
        return topo, controller

    def test_repeats_coalesce_with_count(self):
        topo, controller = self.plain_controller()
        base = len(controller.incidents)
        for _ in range(50):
            controller._incident("probe-flap", "gw1: probe lost", "gw1")
        assert len(controller.incidents) == base + 1
        assert controller.incidents[-1].count == 50
        assert controller.incidents_total >= 50

    def test_distinct_details_do_not_coalesce(self):
        topo, controller = self.plain_controller()
        base = len(controller.incidents)
        controller._incident("router-offline", "gw1 down", "gw1")
        controller._incident("router-offline", "gw2 down", "gw2")
        assert len(controller.incidents) == base + 2

    def test_flap_cannot_wash_out_other_incidents(self):
        topo, controller = self.plain_controller()
        controller._incident("router-offline", "gw3 down", "gw3")
        for _ in range(2 * MAX_INCIDENTS):
            controller._incident("probe-flap", "gw1: probe lost", "gw1")
        kinds = [i.kind for i in controller.incidents]
        assert "router-offline" in kinds  # survived the flap storm

    def test_ring_buffer_stays_bounded(self):
        topo, controller = self.plain_controller()
        for i in range(MAX_INCIDENTS + 200):
            controller._incident("unique", f"incident {i}")
        assert len(controller.incidents) == MAX_INCIDENTS
        assert controller.incidents_total >= MAX_INCIDENTS + 200
        assert controller.health()["incidents_total"] == controller.incidents_total

    def test_dedup_window_is_bounded(self):
        """Only the last few entries are scanned — an old identical incident
        beyond the window starts a fresh entry (bounded work per incident)."""
        topo, controller = self.plain_controller()
        controller._incident("kind-a", "same detail")
        for i in range(INCIDENT_DEDUP_WINDOW + 1):
            controller._incident("filler", f"noise {i}")
        before = len(controller.incidents)
        controller._incident("kind-a", "same detail")
        assert len(controller.incidents) == before + 1

    def test_metrics_weight_incidents_by_count(self):
        from repro.observability.metrics import _incidents_by_kind

        topo, controller = self.plain_controller()
        for _ in range(7):
            controller._incident("probe-flap", "gw1: probe lost", "gw1")
        by_kind = _incidents_by_kind(controller)
        assert by_kind["probe-flap"] == 7
