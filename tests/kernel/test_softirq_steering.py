"""RPS flow steering: flow→CPU affinity and per-flow ordering.

The Hypothesis property is the steering invariant: for any packet stream,
every packet of one flow — in *both* directions — is processed on exactly
one CPU, and per-flow packet order is preserved end to end.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.measure.scenarios import setup_router
from repro.measure.topology import LineTopology
from repro.netsim.checksum import internet_checksum
from repro.netsim.packet import make_arp_request, make_udp

NUM_PREFIXES = 8


def build(num_queues=4):
    topo = LineTopology(num_queues=num_queues)
    topo.install_prefixes(NUM_PREFIXES)
    topo.prewarm_neighbors()
    delivered = []
    topo.sink_eth.nic.attach(lambda frame, q: delivered.append(frame))
    return topo, delivered


def record_processing_cpu(topo):
    """Wrap the DUT stack so each received frame logs its executing CPU."""
    log = []
    original = topo.dut.stack.receive

    def spy(dev, frame, queue=0):
        log.append((bytes(frame), topo.dut.cpus.current_cpu))
        return original(dev, frame, queue)

    topo.dut.stack.receive = spy
    return log


def forward_frame(topo, flow, seq=0):
    return make_udp(
        topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2",
        topo.flow_destination(flow, NUM_PREFIXES),
        sport=1024 + flow, dport=9, ttl=16,
        payload=seq.to_bytes(4, "big"),
    ).to_bytes()


def reverse_frame(topo, flow):
    """The same flow seen from the sink side (reply direction)."""
    return make_udp(
        topo.sink_eth.mac, topo.dut_out.mac,
        topo.flow_destination(flow, NUM_PREFIXES), "10.0.1.2",
        sport=9, dport=1024 + flow, ttl=16,
    ).to_bytes()


def rechecksummed(frame, offset=None, value=b""):
    """``frame`` with ``value`` written at ``offset`` and a valid IPv4
    header checksum, so only the written field can decline it."""
    raw = bytearray(frame)
    if offset is not None:
        raw[offset:offset + len(value)] = value
    ihl = (raw[14] & 0x0F) * 4
    raw[24:26] = b"\x00\x00"
    raw[24:26] = internet_checksum(bytes(raw[14:14 + ihl])).to_bytes(2, "big")
    return bytes(raw)


def with_options(frame):
    """IHL 6: one end-of-list options word after the fixed header."""
    raw = bytearray(frame[:34] + bytes(4) + frame[34:])
    raw[14] = 0x46
    raw[16:18] = (len(raw) - 14).to_bytes(2, "big")
    return rechecksummed(raw)


#: frames steering cannot read a TCP/UDP 5-tuple from, each made from a
#: well-formed forward frame
DECLINED = {
    "short": lambda f: f[:37],
    "arp": lambda f: f[:12] + b"\x08\x06" + f[14:],
    "ip-options": with_options,
    "bad-checksum": lambda f: f[:24] + bytes([f[24] ^ 0xFF]) + f[25:],
    "more-frags": lambda f: rechecksummed(f, 20, b"\x20\x00"),
    "frag-offset": lambda f: rechecksummed(f, 20, b"\x00\x03"),
    "icmp": lambda f: rechecksummed(f, 23, b"\x01"),
}


class TestSteering:
    def test_single_cpu_kernel_runs_everything_on_cpu_zero(self):
        topo, delivered = build(num_queues=1)
        log = record_processing_cpu(topo)
        for flow in range(8):
            topo.dut_in.nic.receive_from_wire(forward_frame(topo, flow))
        assert [cpu for _, cpu in log] == [0] * 8
        assert topo.dut.softirq.rps_steered == 0
        assert len(delivered) == 8

    def test_single_cpu_burst_charges_what_single_frames_charge(self):
        """One CPU has nowhere to steer to, so a burst skips RPS as single
        frames do: the same frames leave the same clock and busy time
        either way."""

        def deliver(burst):
            topo = setup_router("linuxfp", hook="xdp")
            topo.prewarm_neighbors()
            frames = [forward_frame(topo, flow, seq) for seq in range(2) for flow in range(32)]
            kernel = topo.dut
            kernel.cpus.reset_busy()
            start = topo.clock.now_ns
            if burst:
                topo.dut_in.nic.receive_burst(frames)
            else:
                for frame in frames:
                    topo.dut_in.nic.receive_from_wire(frame)
            return topo.clock.now_ns - start, kernel.cpus.busy_ns, kernel.cpus.packets

        assert deliver(burst=True) == deliver(burst=False)

    def test_flows_spread_across_cpus(self):
        topo, _ = build(num_queues=4)
        log = record_processing_cpu(topo)
        for flow in range(64):
            topo.dut_in.nic.receive_from_wire(forward_frame(topo, flow))
        assert {cpu for _, cpu in log} == {0, 1, 2, 3}
        assert sum(topo.dut.cpus.packets) == 64
        assert all(p > 0 for p in topo.dut.cpus.packets)

    def test_both_directions_of_a_flow_share_a_cpu(self):
        topo, _ = build(num_queues=4)
        log = record_processing_cpu(topo)
        for flow in range(16):
            topo.dut_in.nic.receive_from_wire(forward_frame(topo, flow))
            topo.dut_out.nic.receive_from_wire(reverse_frame(topo, flow))
        by_frame = dict(log)
        for flow in range(16):
            fwd_cpu = by_frame[forward_frame(topo, flow)]
            rev_cpu = by_frame[reverse_frame(topo, flow)]
            assert fwd_cpu == rev_cpu, f"flow {flow} split across CPUs"

    def test_unkeyable_frames_stay_on_the_rx_queue_cpu(self):
        topo, _ = build(num_queues=4)
        log = record_processing_cpu(topo)
        steered_before = topo.dut.softirq.rps_steered
        arp = make_arp_request(topo.src_eth.mac, "10.0.1.2", "10.0.1.1").to_bytes()
        queue = topo.dut_in.nic.rss_queue(arp)
        topo.dut_in.nic.receive_from_wire(arp)
        assert log[-1][1] == queue % topo.dut.cpus.num_cpus
        assert topo.dut.softirq.rps_steered == steered_before

    @pytest.mark.parametrize("case", sorted(DECLINED))
    def test_declined_frame_stays_on_rx_cpu(self, case):
        """Each declined frame is processed on its RX queue's CPU, though
        the well-formed frame it was made from steers to another one."""
        topo, _ = build(num_queues=4)
        softirq = topo.dut.softirq
        for flow in range(256):
            good = forward_frame(topo, flow)
            frame = DECLINED[case](good)
            rx_cpu = softirq.rx_queue_cpu(topo.dut_in.nic.rss_queue(frame))
            if softirq.steer(good, rx_cpu) != rx_cpu:
                break
        else:  # pragma: no cover - population always has cross-steers
            raise AssertionError("no cross-steered flow found")
        log = record_processing_cpu(topo)
        steered_before = softirq.rps_steered
        topo.dut_in.nic.receive_from_wire(frame)
        assert log[-1] == (frame, rx_cpu)
        assert softirq.rps_steered == steered_before

    def test_cross_steer_pays_the_ipi_cost(self):
        topo, _ = build(num_queues=4)
        kernel = topo.dut
        # find a frame whose RPS target differs from its RX-queue CPU
        for flow in range(256):
            frame = forward_frame(topo, flow)
            queue = topo.dut_in.nic.rss_queue(frame)
            rx_cpu = queue % kernel.cpus.num_cpus
            target = kernel.softirq.steer(frame, rx_cpu)
            if target != rx_cpu:
                break
        else:  # pragma: no cover - population always has cross-steers
            raise AssertionError("no cross-steered flow found")
        kernel.cpus.reset_busy()
        steered_before = kernel.softirq.rps_steered
        topo.dut_in.nic.receive_from_wire(frame)
        assert kernel.softirq.rps_steered == steered_before + 1
        overhead = kernel.costs.rps_steer + kernel.costs.rps_ipi
        assert kernel.cpus.busy_ns[rx_cpu] >= overhead
        assert kernel.cpus.busy_ns[target] > 0  # the real work landed there

    def test_nested_delivery_stays_inline_on_the_current_cpu(self):
        topo, delivered = build(num_queues=4)
        log = record_processing_cpu(topo)
        frame = forward_frame(topo, 0)
        with topo.dut.cpus.on(2):  # mid-softirq re-injection (veth/decap)
            topo.dut.softirq.rx(topo.dut.devices.by_name("eth0"), frame)
        assert topo.dut.softirq.nested_rx == 1
        assert log[-1] == (frame, 2)  # no re-steer, no recursion
        assert len(delivered) == 1


stream = st.lists(
    st.tuples(st.integers(0, 11), st.booleans()),  # (flow, reverse?)
    min_size=1, max_size=60,
)


class TestSteeringProperty:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=stream, num_queues=st.sampled_from([2, 4, 8]))
    def test_flow_affinity_and_order_for_any_stream(self, ops, num_queues):
        topo, delivered = build(num_queues=num_queues)
        log = record_processing_cpu(topo)
        seq = {}
        for flow, reverse in ops:
            if reverse:
                topo.dut_out.nic.receive_from_wire(reverse_frame(topo, flow))
            else:
                n = seq[flow] = seq.get(flow, 0) + 1
                topo.dut_in.nic.receive_from_wire(forward_frame(topo, flow, seq=n))

        # 1. all packets of a flow (both directions) on exactly one CPU
        flow_cpu = {}
        for (frame, cpu), (flow, reverse) in zip(log, ops):
            assert cpu is not None
            assert flow_cpu.setdefault(flow, cpu) == cpu

        # 2. per-flow order preserved at the sink (sequence in the payload)
        seen = {}
        for frame in delivered:
            sport = (frame[34] << 8) | frame[35]
            if sport < 1024:
                continue  # reply direction carries no sequence
            flow, n = sport - 1024, int.from_bytes(frame[42:46], "big")
            assert n > seen.get(flow, 0), f"flow {flow} reordered"
            seen[flow] = n

        # 3. every forward packet arrived (no loss in steering); reverse
        # packets exit toward the source and are not in the sink's log
        assert len(delivered) == sum(1 for _, reverse in ops if not reverse)
