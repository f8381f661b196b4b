"""Self-healing control plane: transactional deploys, degradation ladder,
retry backoff, netlink overrun resync, and the lost-update latch."""

import pytest

from repro.core import Controller
from repro.core.controller import RETRY_BASE_NS, RETRY_CAP_NS
from repro.core.synthesizer import SynthesizedPath
from repro.kernel.netfilter import Rule
from repro.measure.topology import LineTopology
from repro.netsim.packet import make_udp
from repro.testing import faults
from repro.tools import ip, iptables


def router_topo(prefixes=5):
    topo = LineTopology()
    topo.install_prefixes(prefixes)
    topo.prewarm_neighbors()
    return topo


def attach_sink(topo):
    delivered = []
    topo.sink_eth.nic.attach(lambda f, q: delivered.append(f))
    return delivered


def send_one(topo, dport=7):
    frame = make_udp(
        topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", topo.flow_destination(0, 5), dport=dport
    ).to_bytes()
    topo.dut_in.nic.receive_from_wire(frame)


class TestTransactionalDeploy:
    def test_failed_first_deploy_degrades_to_slow_path(self):
        topo = router_topo()
        with faults.injected() as inj:
            inj.arm("prog_array", count=1)
            controller = Controller(topo.dut, hook="xdp")
            controller.start()  # must not raise
        entry = controller.deployer.deployed["eth0"]
        assert entry.current is None  # slow path serving
        health = controller.health()
        assert not health["ok"]
        assert "eth0" in health["degraded"]
        assert health["degraded"]["eth0"].startswith("swap:")
        delivered = attach_sink(topo)
        send_one(topo)
        assert len(delivered) == 1  # slow path carried the packet

    def test_failed_redeploy_of_identical_source_keeps_last_good(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
        entry = controller.deployer.deployed["eth0"]
        good = entry.current
        assert good is not None
        retry = SynthesizedPath(ifname="eth0", program=good.program, source=good.source, pruned_nfs=[])
        with faults.injected() as inj:
            inj.arm("prog_array")
            assert controller.deployer.deploy(retry) is False
        # identical source ⇒ last-good is still semantically current: keep it
        assert entry.current is good
        assert "eth0" in controller.deployer.failures
        delivered = attach_sink(topo)
        send_one(topo)
        assert len(delivered) == 1

    def test_failed_deploy_after_config_change_withdraws_stale_last_good(self):
        """A DROP rule appears but the new filter FPM fails to deploy: the
        old router-only FPM would forward what the kernel drops. It must go."""
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
        entry = controller.deployer.deployed["eth0"]
        delivered = attach_sink(topo)
        with faults.injected() as inj:
            inj.arm("prog_array")
            topo.dut.ipt_append("FORWARD", Rule(target="DROP", dport=99))  # notifies
        assert entry.current is None  # stale last-good withdrawn
        send_one(topo, dport=99)
        send_one(topo, dport=7)
        assert len(delivered) == 1  # slow path filters exactly like the kernel

    def test_synthesis_failure_with_unchanged_config_keeps_last_good(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
        entry = controller.deployer.deployed["eth0"]
        good = entry.current
        with faults.injected() as inj:
            inj.arm("compile")
            # graph changes (new interface) but eth0's own config does not
            topo.dut.add_physical("eth2")
            ip(topo.dut, "link set eth2 up")
        # eth2 never made it up; eth0's last-good is still current — keep it
        assert entry.current is good
        assert "eth2" in controller.deployer.failures

    def test_deploy_never_raises_under_any_single_fault(self):
        for site in ("compile", "verify", "load", "prog_array", "map_update"):
            topo = router_topo()
            with faults.injected() as inj:
                inj.arm(site)
                controller = Controller(topo.dut, hook="xdp")
                controller.start()  # must not raise regardless of the site
                delivered = attach_sink(topo)
                send_one(topo)
                assert len(delivered) == 1, f"lost traffic with {site} armed"


class TestRetryBackoff:
    def test_tick_retries_and_recovers(self):
        topo = router_topo()
        with faults.injected() as inj:
            inj.arm("prog_array")  # all swaps fail while armed
            controller = Controller(topo.dut, hook="xdp")
            controller.start()
        assert controller.deployer.failures
        assert controller.health()["retry_at_ns"] is not None
        # not due yet: tick is a no-op
        assert controller.tick() is False
        topo.clock.advance(RETRY_BASE_NS * 4)
        assert controller.tick() is True  # fault gone: retry succeeds
        assert not controller.deployer.failures
        assert controller.deployer.deployed["eth0"].current is not None
        assert controller.health()["ok"]

    def test_backoff_is_exponential_and_capped(self):
        topo = router_topo()
        with faults.injected() as inj:
            inj.arm("prog_array")
            controller = Controller(topo.dut, hook="xdp")
            controller.start()
            first_attempts = controller._retry_attempts
            for _ in range(12):  # keep failing: delay grows, then caps
                topo.clock.advance(RETRY_CAP_NS + 1)
                controller.tick()
            assert controller._retry_attempts > first_attempts
            last_delay = controller._retry_at_ns - topo.dut.clock.now_ns
            assert last_delay <= RETRY_CAP_NS


class TestLostUpdateLatch:
    def test_notification_during_reaction_is_not_dropped(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
        nested = []
        original_deploy = controller.deployer.deploy

        def deploy_with_nested_change(path):
            if not nested:
                nested.append(True)
                # a second rule lands while the controller reacts to the first
                topo.dut.ipt_append("FORWARD", Rule(target="DROP", dport=99))
            return original_deploy(path)

        controller.deployer.deploy = deploy_with_nested_change
        topo.dut.ipt_append("FORWARD", Rule(target="DROP", dport=88))
        controller.deployer.deploy = original_deploy
        # the trailing rebuild must have picked up the nested rule
        view_rules = controller.introspection.view.filter.rules["FORWARD"]
        assert len(view_rules) == 2
        delivered = attach_sink(topo)
        send_one(topo, dport=99)  # filtered by the *fast path* built from both rules
        send_one(topo, dport=7)
        assert len(delivered) == 1


class TestTeardownRobustness:
    def test_teardown_survives_deleted_device(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
        topo.dut.add_physical("eth2")
        ip(topo.dut, "link set eth2 up")
        assert "eth2" in controller.deployer.deployed
        ip(topo.dut, "link del eth2")
        controller.stop()  # must not raise on the vanished device
        assert controller.deployer.deployed == {}

    def test_teardown_idempotent(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
        controller.deployer.teardown()
        controller.deployer.teardown()
        assert controller.deployer.deployed == {}

    def test_withdraw_idempotent(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
        entry = controller.deployer.deployed["eth0"]
        controller.deployer.withdraw("eth0")
        swaps = entry.swaps
        controller.deployer.withdraw("eth0")  # no-op: already on slow path
        controller.deployer.withdraw("nonexistent")  # no-op: never deployed
        assert entry.swaps == swaps


class TestOverrunResync:
    def test_lost_notification_triggers_full_resync(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
        assert controller.deployed_summary()["eth0"] == "router"
        with faults.injected() as inj:
            inj.arm("netlink_deliver", action="drop")
            topo.dut.ipt_append("FORWARD", Rule(target="DROP", dport=99))
        # the notification was lost; the controller still runs the old FPM
        assert controller.deployed_summary()["eth0"] == "router"
        assert controller.socket.overrun
        assert not controller.health()["ok"]
        assert controller.tick() is True  # overrun noticed: full re-dump
        assert controller.resyncs == 1
        assert controller.deployed_summary()["eth0"] == "filter -> router"
        assert controller.health()["ok"]

    def test_duplicate_notifications_are_idempotent(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
        with faults.injected() as inj:
            inj.arm("netlink_deliver", action="dup")
            topo.dut.ipt_append("FORWARD", Rule(target="DROP", dport=99))
        assert controller.deployed_summary()["eth0"] == "filter -> router"
        view_rules = controller.introspection.view.filter.rules["FORWARD"]
        assert len(view_rules) == 1  # applied once despite double delivery
        assert controller.health()["ok"]

