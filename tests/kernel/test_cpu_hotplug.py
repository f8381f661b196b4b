"""CPU hotplug: offline/online retargeting across every per-CPU structure.

``Kernel.cpu_offline`` must leave no orphaned work behind: the dead CPU's
backlog is drained first (the ``dev_cpu_dead`` analogy), RSS indirection
and RX-queue affinity re-spread over the online set, and the controller
hears about it over netlink, surfacing a ``cpu-offline`` incident.
``cpu_online`` reverses all of it.
"""

import pytest

from repro.core import Controller
from repro.measure.topology import LineTopology
from repro.netsim.clock import FS_PER_NS
from repro.netsim.cpu import CpuSet
from repro.netsim.packet import make_udp

NUM_PREFIXES = 8


def build(num_queues=4):
    topo = LineTopology(num_queues=num_queues)
    topo.install_prefixes(NUM_PREFIXES)
    topo.prewarm_neighbors()
    delivered = []
    topo.sink_eth.nic.attach(lambda frame, q: delivered.append(frame))
    return topo, delivered


def frame_for(topo, flow, seq=0):
    return make_udp(
        topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2",
        topo.flow_destination(flow, NUM_PREFIXES),
        sport=1024 + flow, dport=9, ttl=16,
        payload=seq.to_bytes(4, "big"),
    ).to_bytes()


def assert_ledger_balanced(stack):
    assert stack.rx_packets + stack.tx_local_packets == stack.settled + stack.pending_packets()


class TestCpuSet:
    def test_offline_refuses_the_last_online_cpu(self):
        cpus = CpuSet(2)
        cpus.offline(1)
        with pytest.raises(ValueError, match="last online"):
            cpus.offline(0)

    def test_offline_refuses_an_executing_cpu(self):
        cpus = CpuSet(2)
        with cpus.on(1), pytest.raises(ValueError, match="executing"):
            cpus.offline(1)

    def test_on_refuses_an_offline_cpu(self):
        cpus = CpuSet(2)
        cpus.offline(1)
        with pytest.raises(ValueError, match="offline"):
            with cpus.on(1):
                pass  # pragma: no cover - must not execute
        cpus.online(1)
        with cpus.on(1):
            cpus.charge_fs(5 * FS_PER_NS)
        assert cpus.busy_ns[1] == 5

    def test_nested_sets_report_their_own_innermost_cpu(self):
        """A frame on DUT CPU 2 crossing into the sink's softirq on CPU 0:
        each kernel's charges land on its own innermost CPU."""
        dut, sink = CpuSet(4), CpuSet(1)
        with dut.on(2):
            with sink.on(0):
                assert (dut.current_cpu, sink.current_cpu) == (2, 0)
                dut.charge_fs(3 * FS_PER_NS)
                sink.charge_fs(7 * FS_PER_NS)
                with dut.on(3):  # a nested softirq on another DUT CPU
                    assert (dut.current_cpu, sink.current_cpu) == (3, 0)
                    dut.charge_fs(1 * FS_PER_NS)
                with pytest.raises(ValueError, match="executing"):
                    dut.offline(2)
                dut.offline(0)  # the sink's CPU 0 executes, not the DUT's
            assert (dut.current_cpu, sink.current_cpu) == (2, None)
        assert dut.current_cpu is None
        assert dut.busy_ns == [0, 0, 3, 1] and sink.busy_ns == [7]


class TestSteeringAfterHotplug:
    def test_no_packet_lands_on_an_offline_cpu(self):
        topo, delivered = build(num_queues=4)
        dut = topo.dut
        dut.cpu_offline(1)
        before = dut.cpus.packets[1]
        for i in range(64):
            topo.dut_in.nic.receive_from_wire(frame_for(topo, i))
        assert dut.cpus.packets[1] == before  # dead CPU did no work
        assert len(delivered) == 64  # its flows went elsewhere, not away
        assert_ledger_balanced(dut.stack)

    def test_rx_queue_affinity_remaps_onto_the_online_set(self):
        topo, _ = build(num_queues=4)
        dut = topo.dut
        assert dut.softirq.rx_queue_cpu(1) == 1
        dut.cpu_offline(1)
        owner = dut.softirq.rx_queue_cpu(1)
        assert owner != 1 and dut.cpus.is_online(owner)
        dut.cpu_online(1)
        assert dut.softirq.rx_queue_cpu(1) == 1

    def test_rss_indirection_avoids_dead_queues_and_resets_on_online(self):
        topo, _ = build(num_queues=4)
        dut = topo.dut
        nic = topo.dut_in.nic
        dut.cpu_offline(1)
        frames = [frame_for(topo, i) for i in range(64)]
        assert all(nic.rss_queue(f) != 1 for f in frames)
        dut.cpu_online(1)
        assert any(nic.rss_queue(f) == 1 for f in frames)

    def test_offline_drains_the_pending_backlog_first(self):
        topo, delivered = build(num_queues=4)
        dut = topo.dut
        # park frames on every backlog without draining (enqueue directly)
        queued = 0
        for i in range(32):
            queued += dut.softirq.enqueue(topo.dut_in, frame_for(topo, i), queue=i % 4)
        assert queued == 32 and sum(dut.softirq.backlog_depths()) == 32
        dut.cpu_offline(1)
        assert dut.softirq.backlog_depths()[1] == 0  # replayed, not dropped
        dut.softirq.process_backlogs()
        assert len(delivered) == 32
        assert_ledger_balanced(dut.stack)


class TestAcceleratedOffline:
    def test_forwarding_continues_after_offline(self):
        topo, delivered = build(num_queues=4)
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
        topo.prewarm_neighbors()
        for i in range(64):
            topo.dut_in.nic.receive_from_wire(frame_for(topo, i))
            topo.dut_in.nic.receive_from_wire(frame_for(topo, i, seq=1))
        assert len(delivered) == 128
        topo.dut.cpu_offline(1)
        # the flows CPU 1 served re-steer to live CPUs and still forward
        for i in range(16):
            topo.dut_in.nic.receive_from_wire(frame_for(topo, i, seq=2))
        assert len(delivered) == 144
        assert_ledger_balanced(topo.dut.stack)


class TestControllerIntegration:
    def accelerated(self):
        topo, delivered = build(num_queues=4)
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
        topo.prewarm_neighbors()
        return topo, delivered, controller

    def test_offline_surfaces_an_incident_and_health_reports_it(self):
        topo, _, controller = self.accelerated()
        topo.dut.cpu_offline(2)
        kinds = [i.kind for i in controller.incidents]
        assert "cpu-offline" in kinds
        health = controller.health()
        assert health["offline_cpus"] == [2]
        topo.dut.cpu_online(2)
        assert "cpu-online" in [i.kind for i in controller.incidents]
        assert controller.health()["offline_cpus"] == []

    def test_traffic_keeps_flowing_across_an_offline_online_cycle(self):
        topo, delivered, controller = self.accelerated()
        for i in range(32):
            topo.dut_in.nic.receive_from_wire(frame_for(topo, i))
        topo.dut.cpu_offline(1)
        for i in range(32):
            topo.dut_in.nic.receive_from_wire(frame_for(topo, i, seq=1))
        topo.dut.cpu_online(1)
        for i in range(32):
            topo.dut_in.nic.receive_from_wire(frame_for(topo, i, seq=2))
        assert len(delivered) == 96
        assert_ledger_balanced(topo.dut.stack)
        assert controller.health()["ok"]
