"""State pressure: fast/slow equivalence with every table at capacity.

The resilience claim under test: when conntrack hits ``nf_conntrack_max``
and the flow cache hits its LRU capacity, the accelerated pipeline must
*degrade*, never *diverge* — identical per-packet outcomes to plain Linux,
with the pressure visible on counters (``early_drops``, ``evictions``)
instead of exceptions.

The final class is the acceptance workload: 10 000 mixed packets (valid
flows cycling far beyond every capacity, plus hostile frames) with an
atomic redeploy mid-stream.
"""

from repro.core import Controller
from repro.kernel.netfilter import Rule
from repro.measure.topology import LineTopology
from repro.netsim.packet import make_udp
from repro.observability.drop_reasons import reason_names

NUM_PREFIXES = 8


def build_dut(rules=(), accelerated=False, conntrack_max=None):
    topo = LineTopology()
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


def drive_flows(topo, delivered, count, sport_base=1024):
    """One UDP packet per distinct flow; True per packet iff it reached the sink."""
    results = []
    for i in range(count):
        frame = make_udp(
            topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2",
            topo.flow_destination(i, NUM_PREFIXES),
            sport=sport_base + i, dport=9, ttl=16,
        ).to_bytes()
        before = len(delivered)
        topo.dut_in.nic.receive_from_wire(frame)
        results.append(len(delivered) > before)
    return results


def assert_conserved(stack):
    pending = stack.pending_packets()
    assert stack.rx_packets + stack.tx_local_packets == stack.settled + pending
    assert stack.settled == sum(stack.outcomes.values()) + stack.dropped


class TestDifferentialUnderPressure:
    def test_conntrack_at_capacity_no_divergence(self):
        # a stateful FORWARD rule forces conntrack onto the forward path;
        # with nf_conntrack_max far below the flow count both pipelines
        # must early-drop identically and still agree on every packet
        rules = [Rule(target="ACCEPT", ct_state="NEW")]
        slow, _, slow_out = build_dut(rules, accelerated=False, conntrack_max=8)
        fast, _, fast_out = build_dut(rules, accelerated=True, conntrack_max=8)
        assert drive_flows(slow, slow_out, 64) == drive_flows(fast, fast_out, 64)
        for topo in (slow, fast):
            ct = topo.dut.conntrack
            assert len(ct) <= 8
            assert ct.early_drops > 0
            assert_conserved(topo.dut.stack)
        assert slow.dut.conntrack.early_drops == fast.dut.conntrack.early_drops


class TestAcceptanceWorkload:
    """10k mixed packets at capacity, with an atomic redeploy mid-stream."""

    TOTAL = 10_000
    REDEPLOY_AT = 5_000
    HOSTILE_EVERY = 41     # garbage / truncated frames interleaved
    HOT_EVERY = 10         # one hot flow, revisited throughout
    FLOWS = 200            # distinct cold flows, cycling

    def _cold_frame(self, topo, i):
        flow = i % self.FLOWS
        return make_udp(
            topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2",
            topo.flow_destination(flow, NUM_PREFIXES),
            sport=10_000 + flow, dport=9, ttl=16,
        ).to_bytes()

    def _hot_frame(self, topo):
        return make_udp(
            topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2",
            topo.flow_destination(0, NUM_PREFIXES),
            sport=55_555, dport=9, ttl=16,
        ).to_bytes()

    def test_ten_thousand_packets_survive_pressure_and_redeploy(self):
        topo, controller, delivered = build_dut(accelerated=True, conntrack_max=32)
        stack = topo.dut.stack
        hostile = valid = 0
        for i in range(self.TOTAL):
            if i == self.REDEPLOY_AT:
                swaps_before = controller.deployer.deployed["eth0"].swaps
                # the first FORWARD rule changes the processing graph
                # (a filter FPM appears): atomic swap, and conntrack joins
                # the forward path for the second half
                topo.dut.ipt_append("FORWARD", Rule(target="ACCEPT", ct_state="NEW"))
                controller.tick()
                assert controller.deployer.deployed["eth0"].swaps > swaps_before
            if i % self.HOSTILE_EVERY == 0:
                # alternate pure garbage and a truncated valid frame
                blob = b"\x00" * 10 if i % 2 == 0 else self._cold_frame(topo, i)[:21]
                topo.dut_in.nic.receive_from_wire(blob)
                hostile += 1
            elif i % self.HOT_EVERY == 0:
                topo.dut_in.nic.receive_from_wire(self._hot_frame(topo))
                valid += 1
            else:
                topo.dut_in.nic.receive_from_wire(self._cold_frame(topo, i))
                valid += 1

        # no uncaught exception reached here; the ledger balances exactly
        assert_conserved(stack)
        assert len(delivered) == valid  # pressure fails open: every valid packet forwarded
        assert stack.dropped == hostile
        assert set(stack.drops) <= set(reason_names())

        # the pressure valve visibly fired
        ct = topo.dut.conntrack
        assert len(ct) <= 32
        assert ct.early_drops > 0

        # and it is scrapeable
        prom = controller.metrics().to_prometheus()
        assert "linuxfp_conntrack_early_drops_total" in prom
