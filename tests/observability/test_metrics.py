"""Tests for the unified metrics registry (snapshot, JSON, Prometheus)."""

import json
import re

from repro.measure.topology import LineTopology
from repro.netsim.packet import make_udp
from repro.observability.metrics import MetricsRegistry

# one Prometheus sample line: name{labels} value
SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? '
    r"[0-9.eE+-]+$"
)


def traffic_topo():
    topo = LineTopology()
    topo.install_prefixes(4)
    topo.prewarm_neighbors()

    def send(dst="10.100.0.1", ttl=64):
        pkt = make_udp(topo.src_eth.mac, topo.dut_in.mac, "10.0.1.2", dst, dport=9, ttl=ttl)
        topo.dut_in.nic.receive_from_wire(pkt.to_bytes())

    for __ in range(4):
        send()
    send(ttl=1)  # ttl_exceeded
    send(dst="192.0.2.1")  # no_route
    return topo


class TestSnapshot:
    def test_snapshot_shape(self):
        topo = traffic_topo()
        snap = MetricsRegistry(topo.dut).snapshot()
        assert snap["host"] == "dut"
        assert snap["stack"]["rx_packets"] == 6
        assert snap["stack"]["drops"]["ttl_exceeded"] == 1
        assert snap["stack"]["drops"]["no_route"] == 1
        assert snap["stack"]["outcomes"]["tx"] >= 4
        assert snap["drops_by_device"]["eth0/ttl_exceeded"] == 1
        assert snap["drops_by_subsys"]["ip"] == 2
        assert "ip_forward" in snap["stage_latency"]
        assert snap["tracer"]["armed"] is False
        # ledger closes in the exported view too
        stack = snap["stack"]
        assert stack["rx_packets"] + stack["tx_local_packets"] == (
            stack["settled"] + stack["pending"]
        )

    def test_json_round_trips(self):
        topo = traffic_topo()
        text = MetricsRegistry(topo.dut).to_json()
        parsed = json.loads(text)
        assert parsed["stack"]["drops"]["ttl_exceeded"] == 1


class TestPrometheus:
    def test_exposition_is_well_formed(self):
        topo = traffic_topo()
        text = MetricsRegistry(topo.dut).to_prometheus()
        assert text.endswith("\n")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            assert SAMPLE_RE.match(line), f"malformed sample line: {line!r}"

    def test_core_families_present(self):
        topo = traffic_topo()
        text = MetricsRegistry(topo.dut).to_prometheus()
        assert "linuxfp_rx_packets_total 6" in text
        assert 'linuxfp_drops_total{reason="ttl_exceeded",subsys="ip"} 1' in text
        assert 'linuxfp_device_drops_total{device="eth0",reason="no_route"} 1' in text
        assert 'linuxfp_outcomes_total{outcome="tx"}' in text
        # histogram family with cumulative buckets and +Inf
        assert "linuxfp_stage_latency_ns_bucket" in text
        assert 'le="+Inf"' in text
        assert "linuxfp_stage_latency_ns_count" in text

    def test_label_escaping(self):
        from repro.observability.metrics import _escape_label, _labels

        assert _escape_label('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        assert _labels() == ""
        assert _labels(dev="eth0") == '{dev="eth0"}'

    def test_controller_families(self):
        from repro.core import Controller

        topo = LineTopology()
        topo.install_prefixes(4)
        controller = Controller(topo.dut, hook="xdp")
        controller.start()
        registry = controller.metrics()
        text = registry.to_prometheus()
        assert "linuxfp_controller_healthy 1" in text
        assert "linuxfp_controller_rebuilds_total" in text
        snap = registry.snapshot()
        assert snap["controller"]["health"]["ok"] is True
