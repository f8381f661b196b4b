"""Tests for the log2 latency histograms."""

import pytest

from repro.kernel import Kernel
from repro.observability.histogram import Log2Histogram, _fmt_pow2


class TestLog2Histogram:
    def test_bucket_boundaries(self):
        h = Log2Histogram()
        for v in (0, -5):
            h.record(v)
        assert h.buckets[0] == 2
        h.record(1)  # [1, 2)
        assert h.buckets[1] == 1
        h.record(2)  # [2, 4)
        h.record(3)
        assert h.buckets[2] == 2
        h.record(1024)  # [1024, 2048)
        assert h.buckets[11] == 1
        h.record(2047)
        assert h.buckets[11] == 2

    def test_count_sum_mean(self):
        h = Log2Histogram()
        h.record(10)
        h.record(30)
        assert h.count == 2
        assert h.total == 40
        assert h.mean() == 20.0
        assert Log2Histogram().mean() == 0.0

    def test_negative_values_do_not_reduce_sum(self):
        h = Log2Histogram()
        h.record(-100)
        h.record(10)
        assert h.total == 10

    def test_rows_span_occupied_range(self):
        h = Log2Histogram()
        h.record(1)
        h.record(12)
        rows = h.rows()
        labels = [label for label, __ in rows]
        assert labels[0] == "[1, 2)"
        assert labels[-1] == "[8, 16)"
        # intermediate empty buckets included for a contiguous display
        assert ("[4, 8)", 0) in rows

    def test_empty_histogram_renders_nothing(self):
        assert Log2Histogram().rows() == []
        assert Log2Histogram().render() == []

    def test_render_bars_scale_to_peak(self):
        h = Log2Histogram()
        for __ in range(4):
            h.record(1)
        h.record(2)
        lines = h.render(width=8)
        assert "|@@@@@@@@|" in lines[0]  # the peak bucket fills the width
        assert "@@" in lines[1]

    def test_prom_buckets_cumulative(self):
        h = Log2Histogram()
        h.record(1)
        h.record(3)
        h.record(3)
        pairs = h.prom_buckets()
        assert pairs[-1] == ("+Inf", 3)
        as_map = dict(pairs)
        assert as_map["2"] == 1  # le=2 covers [.., 2): just the value 1
        assert as_map["4"] == 3

    def test_pow2_labels(self):
        assert _fmt_pow2(512) == "512"
        assert _fmt_pow2(1024) == "1K"
        assert _fmt_pow2(1 << 21) == "2M"
        assert _fmt_pow2(1 << 30) == "1G"


class TestHistogramSet:
    """The monitor records each stage exit and program run into the named
    histogram of its family, made on the name's first record."""

    def test_record_creates_and_accumulates(self):
        obs = Kernel("hists").observability
        for record, family in ((obs.record_stage, obs.stage_latency), (obs.record_fpm, obs.fpm_latency)):
            record("ip_rcv", 100)
            record("ip_rcv", 200)
            record("fib", 50)
            assert len(family) == 2
            assert family["ip_rcv"].count == 2
            assert family["ip_rcv"].total == 300
            assert "fib" in family
            with pytest.raises(KeyError):
                family["rx"]  # a lookup by name makes no histogram
            assert family.names() == ["fib", "ip_rcv"]

    def test_as_dict_and_render(self):
        obs = Kernel("hists").observability
        obs.record_fpm("rx", 1000)
        data = obs.fpm_latency.as_dict()
        assert data["rx"]["count"] == 1
        lines = obs.fpm_latency.render()
        assert any("rx: n=1" in line for line in lines)
