"""The PR 4/5 resilience suites re-run on a 4-CPU pipeline.

Multi-core must not break the packet-conservation ledger or the
degrade-don't-diverge guarantees: every per-CPU counter family sums to its
global, each CPU's ledger balances on its own, conntrack pressure behaves
identically to single-core, and a redeploy in mid-traffic loses nothing.
"""

import pytest

from repro.core import Controller
from repro.kernel.netfilter import Rule
from repro.measure.topology import LineTopology
from repro.netsim.packet import make_udp
from repro.observability.metrics import MetricsRegistry

NUM_PREFIXES = 8
NUM_CPUS = 4


def build(rules=(), accelerated=False, conntrack_max=None, num_queues=NUM_CPUS):
    topo = LineTopology(num_queues=num_queues)
    topo.install_prefixes(NUM_PREFIXES)
    if conntrack_max is not None:
        topo.dut.sysctl_set("net.netfilter.nf_conntrack_max", str(conntrack_max))
    for rule in rules:
        topo.dut.ipt_append("FORWARD", rule)
    controller = None
    if accelerated:
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
    topo.prewarm_neighbors()
    delivered = []
    topo.sink_eth.nic.attach(lambda frame, q: delivered.append(frame))
    return topo, controller, delivered


def drive_flows(topo, delivered, count, sport_base=1024, ttl=16):
    results = []
    for i in range(count):
        frame = make_udp(
            topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2",
            topo.flow_destination(i, NUM_PREFIXES),
            sport=sport_base + i, dport=9, ttl=ttl,
        ).to_bytes()
        before = len(delivered)
        topo.dut_in.nic.receive_from_wire(frame)
        results.append(len(delivered) > before)
    return results


def assert_conserved_per_cpu(stack):
    """Global conservation plus the per-CPU decomposition of the ledger."""
    pending = stack.pending_packets()
    assert stack.rx_packets + stack.tx_local_packets == stack.settled + pending
    assert stack.settled == sum(stack.outcomes.values()) + stack.dropped
    assert sum(stack.rx_by_cpu.values()) == stack.rx_packets
    assert sum(stack.tx_local_by_cpu.values()) == stack.tx_local_packets
    assert sum(stack.settled_by_cpu.values()) == stack.settled
    assert sum(stack.dropped_by_cpu.values()) == stack.dropped
    if pending == 0:
        # a flow never migrates mid-simulation, so with nothing parked each
        # CPU's ledger must balance on its own
        for cpu in set(stack.rx_by_cpu) | set(stack.tx_local_by_cpu):
            rx = stack.rx_by_cpu[cpu] + stack.tx_local_by_cpu[cpu]
            assert rx == stack.settled_by_cpu[cpu], f"cpu {cpu} leaks packets"


class TestLedgerAcrossCpus:
    def test_mixed_traffic_balances_on_every_cpu(self):
        topo, _, delivered = build()
        stack = topo.dut.stack
        assert drive_flows(topo, delivered, 64).count(True) == 64
        drive_flows(topo, delivered, 8, sport_base=9000, ttl=1)  # ttl drops
        topo.dut_in.nic.receive_from_wire(b"\x00" * 8)  # malformed
        assert_conserved_per_cpu(stack)
        assert stack.dropped == 9
        # work actually spread: more than one CPU settled packets
        assert len([c for c in stack.settled_by_cpu if c >= 0]) > 1
        assert topo.dut.observability.drops.total() == 9

    def test_accelerated_pipeline_balances_too(self):
        topo, controller, delivered = build(accelerated=True)
        assert drive_flows(topo, delivered, 64).count(True) == 64
        assert drive_flows(topo, delivered, 64).count(True) == 64
        assert_conserved_per_cpu(topo.dut.stack)
        # the fast path ran on more than one CPU
        assert len([n for n in topo.dut.cpus.packets if n]) > 1

    def test_metrics_expose_the_per_cpu_families(self):
        topo, _, delivered = build()
        drive_flows(topo, delivered, 32)
        registry = MetricsRegistry(topo.dut)
        cpus = registry.snapshot()["cpus"]
        assert cpus["num_cpus"] == NUM_CPUS
        assert sum(cpus["rx_by_cpu"].values()) == topo.dut.stack.rx_packets
        assert sum(cpus["packets"]) == 32
        text = registry.to_prometheus()
        assert 'linuxfp_cpu_busy_ns_total{cpu="0"}' in text
        assert "linuxfp_rps_steered_total" in text


class TestPressureAtFourCpus:
    def test_conntrack_pressure_no_divergence_and_shards_sum(self):
        rules = [Rule(target="ACCEPT", ct_state="NEW")]
        slow, _, slow_out = build(rules, accelerated=False, conntrack_max=8)
        fast, _, fast_out = build(rules, accelerated=True, conntrack_max=8)
        assert drive_flows(slow, slow_out, 64) == drive_flows(fast, fast_out, 64)
        for topo in (slow, fast):
            ct = topo.dut.conntrack
            assert len(ct) <= 8
            assert ct.early_drops > 0  # the pressure is visible, not fatal
            assert_conserved_per_cpu(topo.dut.stack)

    def test_sharded_conntrack_matches_single_core_outcomes(self):
        rules = [Rule(target="ACCEPT", ct_state="NEW")]
        uni, _, uni_out = build(rules, num_queues=1, conntrack_max=8)
        quad, _, quad_out = build(rules, num_queues=NUM_CPUS, conntrack_max=8)
        assert drive_flows(uni, uni_out, 48) == drive_flows(quad, quad_out, 48)


class TestRedeployAcrossCpus:
    def test_redeploy_mid_traffic(self):
        topo, controller, delivered = build(accelerated=True)
        assert drive_flows(topo, delivered, 32, sport_base=2000).count(True) == 32
        swaps_before = controller.deployer.deployed["eth0"].swaps
        # the first FORWARD rule changes the processing graph (a filter FPM
        # appears): an atomic swap while flows are spread over the CPUs
        topo.dut.ipt_append("FORWARD", Rule(target="ACCEPT", ct_state="NEW"))
        controller.tick()
        assert controller.deployer.deployed["eth0"].swaps > swaps_before
        assert drive_flows(topo, delivered, 32, sport_base=2000).count(True) == 32
        stack = topo.dut.stack
        assert_conserved_per_cpu(stack)
        assert len([c for c in stack.settled_by_cpu if c >= 0]) > 1
