"""Metrics: bandwidth, percentiles, channel usage arithmetic."""

import pytest

from repro.errors import SimulationError
from repro.ssd.metrics import ChannelUsage, SimMetrics, percentile


def test_bandwidth_arithmetic():
    m = SimMetrics()
    m.host_read_bytes = 1_000_000
    m.host_write_bytes = 500_000
    m.elapsed_us = 1000.0
    assert m.io_bandwidth_mb_s() == pytest.approx(1500.0)
    assert m.read_bandwidth_mb_s() == pytest.approx(1000.0)


def test_bandwidth_requires_elapsed_time():
    with pytest.raises(SimulationError):
        SimMetrics().io_bandwidth_mb_s()


def test_retry_rate_and_extra_senses():
    m = SimMetrics()
    m.page_reads = 10
    m.retried_reads = 3
    m.total_senses = 14
    assert m.retry_rate() == pytest.approx(0.3)
    assert m.average_extra_senses() == pytest.approx(0.4)
    assert SimMetrics().retry_rate() == 0.0


def test_percentile_nearest_rank():
    values = sorted([10.0, 20.0, 30.0, 40.0])
    assert percentile(values, 50) == 20.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 1) == 10.0
    with pytest.raises(SimulationError):
        percentile([], 50)
    with pytest.raises(SimulationError):
        percentile(values, 150)


def test_channel_usage_fractions():
    usage = ChannelUsage(cor=50, uncor=20, write=10, gc=5, eccwait=5, idle=10)
    fr = usage.fractions()
    assert sum(fr.values()) == pytest.approx(1.0)
    assert fr["COR"] == pytest.approx(0.5)
    assert fr["ECCWAIT"] == pytest.approx(0.05)


def test_channel_usage_empty_interval_rejected():
    with pytest.raises(SimulationError):
        ChannelUsage(0, 0, 0, 0, 0, 0).fractions()


# --- percentile fallback chain: raw list -> streaming histogram -> error ---


def _metrics_with_reads(keep_raw, latencies=(10.0, 20.0, 30.0, 40.0, 1000.0)):
    m = SimMetrics(keep_raw_latencies=keep_raw)
    for lat in latencies:
        m.record_read_latency(lat)
    return m


def test_percentile_prefers_exact_raw_path():
    m = _metrics_with_reads(keep_raw=True)
    # nearest-rank on the raw list: exact values, not bucket midpoints
    assert m.read_latency_percentile(50) == 30.0
    assert m.read_latency_percentile(100) == 1000.0


def test_percentile_falls_back_to_histogram():
    m = _metrics_with_reads(keep_raw=False)
    assert m.read_latencies_us == []  # raw path genuinely off
    assert m.read_latency_hist.count == 5
    p50 = m.read_latency_percentile(50)
    assert p50 == pytest.approx(30.0, rel=m.read_latency_hist.relative_error)
    # the extremes are exact in the histogram (tracked min/max)
    assert m.read_latency_percentile(100) == 1000.0


def test_percentile_chain_exhausted_raises():
    m = SimMetrics(keep_raw_latencies=False)
    with pytest.raises(SimulationError):
        m.read_latency_percentile(50)


def test_raw_and_histogram_percentiles_agree_within_bucket_error():
    m = _metrics_with_reads(keep_raw=True)
    rel = m.read_latency_hist.relative_error
    for q in (25, 50, 75, 90, 100):
        exact = m.read_latency_percentile(q)
        assert m.read_latency_hist.percentile(q) == pytest.approx(exact, rel=rel)
