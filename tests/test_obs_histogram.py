"""Streaming latency histogram: parity with exact percentiles, bounds,
merging, and JSON round-trips."""

import math

import pytest

from repro.errors import SimulationError
from repro.obs.histogram import LatencyHistogram, percentile
from repro.rng import make_rng
from repro.ssd.metrics import SimMetrics


def _samples(n=5000, seed=13):
    rng = make_rng(seed)
    # lognormal with a heavy tail, the shape of retry-laden read latencies
    return [float(v) for v in 80.0 * rng.lognormal(0.0, 0.9, n)]


@pytest.mark.parametrize("q", [50.0, 99.0, 99.9])
def test_percentile_parity_with_exact(q):
    values = _samples()
    hist = LatencyHistogram()
    for v in values:
        hist.record(v)
    exact = percentile(sorted(values), q)
    approx = hist.percentile(q)
    err = hist.relative_error
    # bucket upper edge: at most one bucket above the exact sample
    assert exact * (1 - 1e-12) <= approx <= exact * (1 + err) * (1 + 1e-12)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"),
                                 -float("inf")])
def test_record_rejects_non_finite_and_negative(bad):
    # regression: +inf used to pass the `not value >= 0` guard and poison
    # sum_us/max_us (and every percentile derived from them) forever
    hist = LatencyHistogram()
    hist.record(10.0)
    with pytest.raises(SimulationError):
        hist.record(bad)
    assert hist.count == 1
    assert math.isfinite(hist.sum_us) and math.isfinite(hist.max_us)
    assert hist.max_us == 10.0


def test_extremes_are_exact():
    values = _samples(n=500)
    hist = LatencyHistogram()
    for v in values:
        hist.record(v)
    assert hist.percentile(100.0) == max(values)
    assert hist.min_us == min(values)
    assert hist.count == len(values)
    assert hist.sum_us == pytest.approx(sum(values))


def test_q_zero_rejected_everywhere():
    hist = LatencyHistogram()
    hist.record(1.0)
    with pytest.raises(SimulationError):
        hist.percentile(0)
    with pytest.raises(SimulationError):
        hist.percentile(101)
    with pytest.raises(SimulationError):
        percentile([1.0, 2.0], 0)


def test_empty_histogram_rejects_queries():
    hist = LatencyHistogram()
    with pytest.raises(SimulationError):
        hist.percentile(50)


def test_relative_error_matches_bucket_width():
    hist = LatencyHistogram(buckets_per_decade=64)
    assert hist.relative_error == pytest.approx(10 ** (1 / 64) - 1)
    # ~3.7% at the default resolution
    assert hist.relative_error < 0.04


def test_under_and_overflow_counted():
    hist = LatencyHistogram(lo_us=1.0, hi_us=100.0)
    hist.record(0.5)
    hist.record(10.0)
    hist.record(1e6)
    assert hist.underflow == 1
    assert hist.overflow == 1
    assert hist.count == 3
    # extremes stay exact even out of bucket range
    assert hist.percentile(100) == 1e6
    assert hist.min_us == 0.5


def test_merge_equals_single_stream():
    values = _samples(n=800)
    one = LatencyHistogram()
    a, b = LatencyHistogram(), LatencyHistogram()
    for i, v in enumerate(values):
        one.record(v)
        (a if i % 2 else b).record(v)
    a.merge(b)
    assert a.counts == one.counts
    assert (a.count, a.min_us, a.max_us) == (one.count, one.min_us, one.max_us)
    # summation order differs between the streams, so sums match to ulps
    assert a.sum_us == pytest.approx(one.sum_us)


def test_json_roundtrip_and_unknown_keys():
    hist = LatencyHistogram()
    for v in _samples(n=300):
        hist.record(v)
    data = hist.to_dict()
    assert hist == LatencyHistogram.from_dict(data)
    data["from_the_future"] = {"x": 1}
    assert hist == LatencyHistogram.from_dict(data)


def test_simmetrics_histogram_fallback():
    """Percentiles come from the histogram whether or not the raw lists
    are kept, so dropping them (O(1) mode) changes no answer; each is
    within one bucket above the exact nearest-rank value."""
    values = _samples(n=2000)
    kept = SimMetrics()
    slim = SimMetrics(keep_raw_latencies=False)
    for v in values:
        kept.record_read_latency(v)
        slim.record_read_latency(v)
    assert slim.read_latencies_us == []
    assert kept.read_latencies_us == values
    err = slim.read_latency_hist.relative_error
    for q in (50, 99, 99.9):
        exact = percentile(sorted(values), q)
        approx = slim.read_latency_percentile(q)
        assert kept.read_latency_percentile(q) == approx
        assert exact * (1 - 1e-12) <= approx <= exact * (1 + err) * (1 + 1e-12)


def test_summary_is_none_valued_until_a_sample_lands():
    hist = LatencyHistogram()
    assert hist.summary() == {"count": 0, "mean_us": None, "max_us": None,
                              "p50_us": None, "p99_us": None,
                              "p999_us": None}
    values = _samples(n=500)
    for v in values:
        hist.record(v)
    assert hist.summary() == {
        "count": 500, "mean_us": hist.mean(), "max_us": max(values),
        "p50_us": hist.percentile(50.0), "p99_us": hist.percentile(99.0),
        "p999_us": hist.percentile(99.9),
    }


def test_merge_any_split_any_order_equals_whole():
    """Property: any partition of a stream, merged in any order, equals
    the single-stream histogram exactly (counts, extremes, to_dict)."""
    import random as pyrandom

    for seed in (0, 1, 2, 3, 4):
        prng = pyrandom.Random(seed)
        values = _samples(n=600, seed=seed + 100)
        whole = LatencyHistogram()
        for v in values:
            whole.record(v)
        n_parts = prng.randint(2, 7)
        parts = [LatencyHistogram() for _ in range(n_parts)]
        for v in values:
            parts[prng.randrange(n_parts)].record(v)
        prng.shuffle(parts)
        merged = LatencyHistogram()
        for part in parts:
            merged.merge(part)
        assert merged.counts == whole.counts
        assert merged.count == whole.count
        assert merged.min_us == whole.min_us
        assert merged.max_us == whole.max_us
        assert merged.underflow == whole.underflow
        assert merged.overflow == whole.overflow
        d_merged, d_whole = merged.to_dict(), whole.to_dict()
        # sums accumulate in different orders; compare them approximately
        # and everything else exactly
        assert d_merged.pop("sum_us") == pytest.approx(d_whole.pop("sum_us"))
        assert d_merged == d_whole


@pytest.mark.parametrize("seed", [7, 21, 42])
def test_percentiles_within_one_bucket_of_raw_reference(seed):
    """Property: every bucketed percentile lands within one bucket width
    (a factor of 10**(1/64)) of the sorted-raw nearest-rank value, and the
    percentiles never fall as q rises."""
    values = _samples(n=3000, seed=seed)
    hist = LatencyHistogram()
    for v in values:
        hist.record(v)
    ordered = sorted(values)
    width = 10 ** (1 / hist.buckets_per_decade)
    for q in (1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9):
        exact = percentile(ordered, q)
        approx = hist.percentile(q)
        assert exact / width <= approx * (1 + 1e-12)
        assert approx <= exact * width * (1 + 1e-12)
    ladder = [hist.percentile(2.0 * i) for i in range(1, 51)]
    assert ladder == sorted(ladder)
    assert ladder[-1] == max(values)


def test_record_is_constant_memory():
    hist = LatencyHistogram()
    for v in _samples(n=4000):
        hist.record(v)
    decades = math.log10(hist.hi_us / hist.lo_us)
    assert len(hist.counts) <= decades * hist.buckets_per_decade
    # far fewer live buckets than samples: the whole point
    assert len(hist.counts) < 500
