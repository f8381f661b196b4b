"""Tests for the pwru-style packet tracer: filters, ring, journeys."""

import pytest

from repro.measure.topology import LineTopology
from repro.netsim.clock import Clock
from repro.netsim.packet import make_tcp, make_udp
from repro.observability.tracer import (
    PacketTracer,
    TraceFilter,
    TraceFilterError,
    describe_packet,
)

MAC = "02:00:00:00:00:01"


def udp(src="10.0.1.2", dst="10.100.0.1", sport=1234, dport=9):
    return make_udp(MAC, MAC, src, dst, sport=sport, dport=dport)


class TestTraceFilter:
    def test_parse_full_expression(self):
        flt = TraceFilter.parse("src=10.0.0.0/8,proto=udp,dport=9,dev=eth0")
        assert flt.proto == 17
        assert flt.dport == 9
        assert flt.dev == "eth0"
        assert flt.matches(udp(), "eth0")
        assert not flt.matches(udp(), "eth1")
        assert not flt.matches(udp(src="192.168.0.1"), "eth0")

    def test_parse_proto_by_number_and_name(self):
        assert TraceFilter.parse("proto=tcp").proto == 6
        assert TraceFilter.parse("proto=6").proto == 6
        assert TraceFilter.parse("proto=icmp").proto == 1

    def test_parse_bare_address_gets_host_prefix(self):
        flt = TraceFilter.parse("dst=10.100.0.1")
        assert flt.matches(udp(), None)
        assert not flt.matches(udp(dst="10.100.0.2"), None)

    def test_parse_rejects_garbage(self):
        with pytest.raises(TraceFilterError):
            TraceFilter.parse("nonsense")
        with pytest.raises(TraceFilterError):
            TraceFilter.parse("proto=quic")
        with pytest.raises(TraceFilterError):
            TraceFilter.parse("color=red")

    def test_port_filter_skips_non_l4(self):
        flt = TraceFilter.parse("dport=9")
        from repro.netsim.packet import make_arp_request

        arp = make_arp_request(MAC, "10.0.0.1", "10.0.0.2")
        assert not flt.matches(arp, None)

    def test_unparsed_frame_matches_only_unconstrained(self):
        assert TraceFilter().matches(None, "eth0")
        assert TraceFilter(dev="eth0").matches(None, "eth0")
        assert not TraceFilter.parse("proto=udp").matches(None, "eth0")

    def test_tcp_ports(self):
        flt = TraceFilter.parse("proto=tcp,sport=80")
        pkt = make_tcp(MAC, MAC, "10.0.0.1", "10.0.0.2", sport=80, dport=5000)
        assert flt.matches(pkt, None)
        assert not flt.matches(udp(sport=80), None)


class TestDescribe:
    def test_udp_headline(self):
        assert describe_packet(udp()) == "10.0.1.2:1234 > 10.100.0.1:9 udp ttl=64"

    def test_unparsed(self):
        assert describe_packet(None) == "(unparsed frame)"


class TestPacketTracer:
    def test_disarmed_captures_nothing(self):
        tracer = PacketTracer(Clock())
        assert tracer.begin("rx", "eth0", udp()) is None
        assert not tracer.recording

    def test_journey_events_and_outcome(self):
        clock = Clock()
        tracer = PacketTracer(clock)
        tracer.arm()
        token = tracer.begin("rx", "eth0", udp())
        assert token is not None and tracer.recording
        clock.advance(100)
        tracer.event("stage", "ip_rcv")
        tracer.set_outcome("tx")
        tracer.set_outcome("later")  # first outcome wins
        clock.advance(50)
        tracer.end(token)
        assert not tracer.recording
        [trace] = tracer.traces()
        assert trace.outcome == "tx"
        assert trace.elapsed_ns() == 150
        assert [(e.stage, e.detail) for e in trace.events] == [("stage", "ip_rcv")]
        assert trace.events[0].ns == 100

    def test_filter_gates_begin(self):
        tracer = PacketTracer(Clock())
        tracer.arm(TraceFilter.parse("dport=9"))
        assert tracer.begin("rx", "eth0", udp(dport=53)) is None
        assert tracer.begin("rx", "eth0", udp(dport=9)) is not None

    def test_ring_bound_with_overflow_accounting(self):
        clock = Clock()
        tracer = PacketTracer(clock, capacity=4)
        tracer.arm()
        for i in range(10):
            token = tracer.begin("rx", "eth0", udp(sport=i + 1))
            tracer.end(token)
        assert len(tracer.ring) == 4
        assert tracer.overflowed == 6
        assert tracer.matched == 10
        # the survivors are the newest four
        assert [t.trace_id for t in tracer.traces()] == [7, 8, 9, 10]
        summary = tracer.summary()
        assert summary["captured"] == 4 and summary["overflowed"] == 6

    def test_per_trace_event_cap(self):
        tracer = PacketTracer(Clock(), max_events=3)
        tracer.arm()
        token = tracer.begin("rx", "eth0", udp())
        for i in range(5):
            tracer.event("stage", f"s{i}")
        tracer.end(token)
        [trace] = tracer.traces()
        assert len(trace.events) == 3
        assert trace.truncated_events == 2
        assert any("truncated" in line for line in trace.render())

    def test_disarm_drops_in_flight(self):
        tracer = PacketTracer(Clock())
        tracer.arm()
        token = tracer.begin("rx", "eth0", udp())
        tracer.disarm()
        tracer.end(token)  # already evicted from the active stack: no-op
        assert tracer.traces() == []

    def test_recording_is_a_trace_in_flight(self):
        # An armed burst runs two frames' programs, setting each trace
        # aside, then resumes and ends each in turn.
        tracer = PacketTracer(Clock())
        tracer.arm()

        def check(expected):
            assert tracer.recording is expected is bool(tracer._active)

        first = tracer.begin("rx", "eth0", udp(sport=1))
        check(True)
        tracer.set_aside(first)
        check(False)
        second = tracer.begin("rx", "eth0", udp(sport=2))
        check(True)
        tracer.resume(first)  # two traces in flight
        check(True)
        tracer.set_aside(second)
        check(True)
        tracer.end(first)
        check(False)
        tracer.resume(second)
        check(True)
        tracer.end(second)
        check(False)
        tracer.begin("rx", "eth0", udp(sport=3))
        tracer.begin("rx", "eth0", udp(sport=4))
        check(True)
        tracer.disarm()
        check(False)

    def test_clear_resets_ring_and_counters(self):
        tracer = PacketTracer(Clock())
        tracer.arm(capacity=1)
        for __ in range(3):
            tracer.end(tracer.begin("rx", None, udp()))
        tracer.clear()
        assert tracer.traces() == [] and tracer.matched == 0 and tracer.overflowed == 0


class TestPipelineIntegration:
    def test_forwarded_packet_journey(self):
        topo = LineTopology()
        topo.install_prefixes(4)
        topo.prewarm_neighbors()
        tracer = topo.dut.observability.tracer
        tracer.arm(TraceFilter.parse("proto=udp,dport=9"))
        frame = make_udp(
            topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.1", dport=9
        ).to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        [trace] = tracer.traces()
        assert trace.dev == "eth0"
        assert trace.outcome == "tx"
        stages = [e.detail for e in trace.events if e.stage == "stage"]
        assert "ip_rcv" in stages and "ip_forward" in stages
        assert trace.end_ns > trace.start_ns

    def test_dropped_packet_records_kfree_skb(self):
        topo = LineTopology()
        topo.install_prefixes(4)
        topo.prewarm_neighbors()
        tracer = topo.dut.observability.tracer
        tracer.arm()
        frame = make_udp(
            topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.1", ttl=1
        ).to_bytes()
        topo.dut_in.nic.receive_from_wire(frame)
        drops = [t for t in tracer.traces() if t.outcome == "drop:ttl_exceeded"]
        assert len(drops) == 1
        kfree = [e for e in drops[0].events if e.stage == "kfree_skb"]
        assert kfree and kfree[0].detail == "ttl_exceeded"

    def test_stage_latency_histograms_populate(self):
        topo = LineTopology()
        topo.install_prefixes(4)
        topo.prewarm_neighbors()
        frame = make_udp(
            topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", "10.100.0.1"
        ).to_bytes()
        for __ in range(8):
            topo.dut_in.nic.receive_from_wire(frame)
        hists = topo.dut.observability.stage_latency
        assert "ip_forward" in hists
        assert hists["ip_forward"].count == 8
        assert hists["ip_forward"].mean() > 0
