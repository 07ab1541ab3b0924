"""Metrics: bandwidth, percentiles, channel usage arithmetic."""

import pytest

from repro.campaign.progress import cell_report
from repro.campaign.spec import RunSpec, execute
from repro.errors import SimulationError
from repro.obs.histogram import percentile
from repro.ssd.metrics import ChannelUsage, SimMetrics


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


# --- every latency statistic comes from the streaming histogram ---


def _metrics_with_reads(keep_raw=True,
                        latencies=(10.0, 20.0, 30.0, 40.0, 1000.0)):
    m = SimMetrics(keep_raw_latencies=keep_raw)
    for lat in latencies:
        m.record_read_latency(lat)
    return m


def test_percentile_reads_the_histogram_when_raw_lists_are_kept():
    m = _metrics_with_reads()
    assert m.read_latencies_us == [10.0, 20.0, 30.0, 40.0, 1000.0]
    for q in (25, 50, 75, 90, 100):
        assert m.read_latency_percentile(q) == m.read_latency_hist.percentile(q)
    # p50 is its bucket's upper edge, not the listed sample 30.0
    p50 = m.read_latency_percentile(50)
    assert p50 != 30.0
    assert p50 == pytest.approx(30.0, rel=m.read_latency_hist.relative_error)
    # the extremes are exact in the histogram (tracked min/max)
    assert m.read_latency_percentile(100) == 1000.0


def test_percentile_falls_back_to_histogram():
    """With no raw lists kept, the histogram still answers, and with the
    same values as when they are kept: it is the only source."""
    m = _metrics_with_reads(keep_raw=False)
    assert m.read_latencies_us == []  # raw path genuinely off
    assert m.read_latency_hist.count == 5
    p50 = m.read_latency_percentile(50)
    assert p50 == pytest.approx(30.0, rel=m.read_latency_hist.relative_error)
    # the extremes are exact in the histogram (tracked min/max)
    assert m.read_latency_percentile(100) == 1000.0
    kept = _metrics_with_reads()
    for q in (25, 50, 75, 90, 100):
        assert m.read_latency_percentile(q) == kept.read_latency_percentile(q)


def test_percentile_chain_exhausted_raises():
    m = SimMetrics(keep_raw_latencies=False)
    with pytest.raises(SimulationError):
        m.read_latency_percentile(50)


def test_raw_and_histogram_percentiles_agree_within_bucket_error():
    m = _metrics_with_reads()
    rel = m.read_latency_hist.relative_error
    for q in (25, 50, 75, 90, 100):
        exact = percentile(sorted(m.read_latencies_us), q)
        assert m.read_latency_percentile(q) == pytest.approx(exact, rel=rel)


@pytest.mark.parametrize("tamper", ["cleared", "altered"])
def test_latency_readers_answer_from_the_histogram_not_the_lists(tamper):
    """The raw lists are storage only: cleared, or rewritten to disagree
    with the histogram, they change neither ``read_latency_percentile``,
    nor the tail summary, nor ``cell_report``'s p50/p99/p999 fields."""
    spec = RunSpec(workload="Ali124", policy="SENC", pe_cycles=2000.0,
                   n_requests=60, user_pages=2000, queue_depth=16, seed=7)
    result = execute(spec)
    m = result.metrics
    hist = m.read_latency_hist
    expected = {q: hist.percentile(q) for q in (50.0, 99.0, 99.9)}
    assert percentile(sorted(m.read_latencies_us), 50.0) != expected[50.0]
    n = len(m.read_latencies_us)
    m.read_latencies_us[:] = [] if tamper == "cleared" else [1e6] * n

    for q, value in expected.items():
        assert m.read_latency_percentile(q) == value
    summary = hist.summary()
    assert summary == {
        "count": hist.count, "mean_us": hist.mean(), "max_us": hist.max_us,
        "p50_us": expected[50.0], "p99_us": expected[99.0],
        "p999_us": expected[99.9],
    }
    assert hist.count == n
    record = cell_report(spec, result, elapsed_s=0.0, cached=False)
    assert (record["p50_read_us"], record["p99_read_us"],
            record["p999_read_us"]) == (expected[50.0], expected[99.0],
                                        expected[99.9])
