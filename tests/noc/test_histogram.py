"""Tests for the log-bucketed latency histogram."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.histogram import LatencyHistogram


class TestRecording:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(50) is None

    def test_basic_stats(self):
        h = LatencyHistogram()
        h.record_many([1, 2, 3, 4])
        assert h.count == 4
        assert h.mean == 2.5
        assert h.min_value == 1
        assert h.max_value == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1)

    def test_bucket_boundaries(self):
        h = LatencyHistogram()
        for v in (0, 1, 2, 3, 4, 7, 8, 1024):
            h.record(v)
        assert h.buckets[0] == 2   # 0, 1
        assert h.buckets[1] == 2   # 2, 3
        assert h.buckets[2] == 2   # 4..7
        assert h.buckets[3] == 1   # 8..15
        assert h.buckets[10] == 1  # 1024

    def test_overflow_clamped_to_last_bucket(self):
        h = LatencyHistogram(max_exponent=4)
        h.record(10**9)
        assert h.buckets[4] == 1


class TestPercentiles:
    def test_percentile_monotone(self):
        h = LatencyHistogram()
        rng = random.Random(3)
        h.record_many(rng.randrange(1000) for _ in range(500))
        ps = [h.percentile(p) for p in (10, 50, 90, 99, 100)]
        assert ps == sorted(ps)

    def test_percentile_accuracy_uniform(self):
        h = LatencyHistogram()
        h.record_many(range(1024))
        # Log buckets: coarse, but the median must land in the right octave.
        assert 256 <= h.percentile(50) <= 1024

    def test_p0_is_min(self):
        h = LatencyHistogram()
        h.record_many([5, 9, 100])
        assert h.percentile(0) == 5

    def test_bad_percentile(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101)

    def test_summary_keys(self):
        h = LatencyHistogram()
        h.record(10)
        s = h.summary()
        assert set(s) == {"count", "mean", "p50", "p90", "p95", "p99", "max"}

    def test_named_percentile_properties(self):
        h = LatencyHistogram()
        h.record_many(range(100))
        assert h.p50 == h.percentile(50)
        assert h.p95 == h.percentile(95)
        assert h.p99 == h.percentile(99)
        assert h.p50 <= h.p95 <= h.p99

    def test_empty_percentiles_are_none(self):
        """No samples -> no percentiles; a fake 0.0 would poison every
        mean or trend computed from these summaries."""
        h = LatencyHistogram()
        assert h.p50 is None
        assert h.p95 is None
        assert h.p99 is None
        assert h.percentile(0) is None
        assert h.percentile(100) is None
        s = h.summary()
        assert s["count"] == 0
        assert s["p50"] is None and s["p95"] is None and s["p99"] is None

    def test_single_sample_is_every_percentile(self):
        h = LatencyHistogram()
        h.record(37)
        for p in (0, 1, 50, 95, 99, 100):
            assert h.percentile(p) == 37.0
        assert h.p50 == h.p95 == h.p99 == 37.0
        assert h.summary()["p99"] == 37.0

    def test_single_zero_sample(self):
        h = LatencyHistogram()
        h.record(0)
        assert h.p50 == 0.0 and h.p99 == 0.0


class TestMerge:
    def test_merge_combines(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record_many([1, 2])
        b.record_many([100, 200])
        a.merge(b)
        assert a.count == 4
        assert a.min_value == 1
        assert a.max_value == 200

    def test_merge_geometry_mismatch(self):
        with pytest.raises(ValueError):
            LatencyHistogram(8).merge(LatencyHistogram(9))


class TestPlot:
    def test_ascii_plot(self):
        h = LatencyHistogram()
        h.record_many([1, 1, 1, 64])
        out = h.ascii_plot(width=10)
        assert "#" in out
        assert "64" in out

    def test_empty_plot(self):
        assert LatencyHistogram().ascii_plot() == "(empty)"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=200))
def test_histogram_invariants(samples):
    h = LatencyHistogram()
    h.record_many(samples)
    assert h.count == len(samples)
    assert h.total == sum(samples)
    assert h.min_value == min(samples)
    assert h.max_value == max(samples)
    assert sum(h.buckets) == len(samples)
    assert h.min_value <= h.percentile(50) <= h.max_value
