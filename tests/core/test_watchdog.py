"""Differential watchdog: shadow-predict on the fast path, let the plain
kernel handle the sampled packet authoritatively, and quarantine on mismatch."""

import pytest

from repro.core import Controller
from repro.core.controller import QUARANTINE_HOLDOFF_NS
from repro.ebpf.minic import compile_c
from repro.ebpf.vm import VMError
from repro.measure.topology import LineTopology
from repro.netsim.packet import make_udp
from repro.tools import iptables


def router_topo():
    topo = LineTopology()
    topo.install_prefixes(5)
    topo.prewarm_neighbors()
    return topo


def attach_sink(topo):
    delivered = []
    topo.sink_eth.nic.attach(lambda f, q: delivered.append(f))
    return delivered


def send(topo, n=1, flow=0):
    for _ in range(n):
        frame = make_udp(
            topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", topo.flow_destination(flow, 5)
        ).to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)


def corrupt_fast_path(controller, ifname="eth0", hook="xdp"):
    """Swap a drop-everything program into the serving slot — a stand-in for
    any synthesis bug or stale view that makes the FPM diverge."""
    verdict = 1 if hook == "xdp" else 2  # XDP_DROP / TC_ACT_SHOT
    bad = compile_c(f"u32 main() {{ return {verdict}; }}", name="bad", hook=hook)
    controller.deployer.deployed[ifname].prog_array.set_prog(0, bad)


class TestHealthyAgreement:
    def test_sampling_never_changes_behavior(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp", watchdog_every=1)
        controller.start()
        delivered = attach_sink(topo)
        send(topo, 10)
        assert len(delivered) == 10  # authoritative slow path delivered all
        wd = controller.watchdog
        assert wd.sampled == 10
        assert wd.agreements == 10
        assert wd.mismatches == 0
        assert not controller.deployer.quarantined
        assert controller.health()["ok"]

    def test_unsampled_packets_stay_on_fast_path(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp", watchdog_every=4)
        controller.start()
        delivered = attach_sink(topo)
        send(topo, 8)
        assert len(delivered) == 8
        assert controller.watchdog.sampled == 2  # packets 4 and 8

    def test_watchdog_disabled_by_default(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
        assert controller.watchdog is None
        assert topo.dut.watchdog is None


class TestMismatchContainment:
    def test_corrupted_fpm_is_caught_and_quarantined(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp", watchdog_every=1)
        controller.start()
        corrupt_fast_path(controller)
        delivered = attach_sink(topo)
        send(topo)
        # the sampled packet was still delivered: the kernel, not the broken
        # FPM, was authoritative for it
        assert len(delivered) == 1
        assert controller.watchdog.mismatches == 1
        assert "eth0" in controller.deployer.quarantined
        assert controller.deployer.deployed["eth0"].current is None
        health = controller.health()
        assert not health["ok"]
        assert "eth0" in health["quarantined"]
        assert any(i.kind == "watchdog-mismatch" for i in controller.incidents)

    def test_detection_within_one_sampling_window(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp", watchdog_every=4)
        controller.start()
        corrupt_fast_path(controller)
        delivered = attach_sink(topo)
        send(topo, 8)
        # packets 1-3 hit the broken FPM and were dropped; packet 4 was the
        # differential sample (delivered by the kernel, mismatch detected);
        # 5-8 rode the slow path after quarantine
        assert controller.watchdog.mismatches == 1
        assert len(delivered) == 5

    def test_traffic_after_quarantine_rides_the_slow_path(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp", watchdog_every=4)
        controller.start()
        corrupt_fast_path(controller)
        delivered = attach_sink(topo)
        send(topo, 8, flow=0)
        assert controller.watchdog.mismatches == 1
        assert len(delivered) == 5
        # the dispatcher falls through to the slow path from now on
        send(topo, 4, flow=0)
        assert len(delivered) == 9

    def test_wrong_rewrite_is_caught_and_quarantined(self):
        """An FPM that forwards with the wrong destination MAC: the first
        sample's prediction disagrees with the kernel's frame."""
        from repro.netsim.addresses import MacAddr

        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp", watchdog_every=4)
        controller.start()
        bogus = bytes.fromhex("02deadbeef00")
        bad = compile_c(
            "u32 main(u8* pkt, u64 len, u64 ifindex) {"
            " if (len < 14) { return 2; }"
            f" st48(pkt, 0, 0x{bogus.hex()});"
            f" return redirect({topo.dut_out.ifindex}, 0); }}",
            name="bad", hook="xdp",
        )
        controller.deployer.deployed["eth0"].prog_array.set_prog(0, bad)
        delivered = attach_sink(topo)
        send(topo, 8, flow=0)
        # packets 1-3 left with the wrong MAC; packet 4, the first sample,
        # was the kernel's and disagreed with the prediction
        assert controller.watchdog.mismatches == 1
        assert controller.watchdog.sampled == 1
        assert "eth0" in controller.deployer.quarantined
        assert [f[0:6] == bogus for f in delivered] == [True] * 3 + [False] * 5
        assert all(MacAddr.from_bytes(f[0:6]) == topo.sink_eth.mac for f in delivered[3:])

    def test_tc_hook_watchdog(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="tc", watchdog_every=1)
        controller.start()
        corrupt_fast_path(controller, hook="tc")
        delivered = attach_sink(topo)
        send(topo)
        assert len(delivered) == 1
        assert controller.watchdog.mismatches == 1
        assert "eth0" in controller.deployer.quarantined


    @pytest.mark.parametrize("hook", ["xdp", "tc"])
    def test_aborted_prediction_is_a_mismatch_even_when_the_kernel_drops(self, hook, monkeypatch):
        # An abort surfaces as TC_ACT_SHOT at the TC hook; it must not pass
        # for agreement just because the kernel drops the packet too.
        topo = router_topo()
        iptables(topo.dut, f"-A FORWARD -d {topo.flow_destination(0, 5)}/32 -j DROP")
        controller = Controller(topo.dut, hook=hook, watchdog_every=1)
        controller.start()
        execute = topo.dut.jit.execute

        def abort_fast_paths(program, args, env, **kwargs):
            if program.name.startswith("linuxfp_"):
                raise VMError(f"{program.name}: injected abort")
            return execute(program, args, env, **kwargs)

        monkeypatch.setattr(topo.dut.jit, "execute", abort_fast_paths)
        delivered = attach_sink(topo)
        send(topo)
        assert delivered == []  # the kernel dropped it, as its rule says
        wd = controller.watchdog
        assert (wd.agreements, wd.mismatches) == (0, 1)
        assert "eth0" in controller.deployer.quarantined


class TestRecovery:
    def test_resynthesis_after_holdoff(self):
        topo = router_topo()
        controller = Controller(topo.dut, hook="xdp", watchdog_every=1)
        controller.start()
        corrupt_fast_path(controller)
        send(topo)  # detect + quarantine
        assert "eth0" in controller.deployer.quarantined
        # inside the hold-off nothing is redeployed
        assert controller.tick() is False or controller.deployer.deployed["eth0"].current is None
        topo.clock.advance(QUARANTINE_HOLDOFF_NS * 2)
        assert controller.tick() is True
        entry = controller.deployer.deployed["eth0"]
        assert entry.current is not None  # fresh, correct FPM back in the slot
        assert "eth0" not in controller.deployer.quarantined
        assert controller.health()["ok"]
        delivered = attach_sink(topo)
        send(topo, 4)
        assert len(delivered) == 4
        assert controller.watchdog.mismatches == 1  # no new mismatches
