"""Exporters: Prometheus text exposition (+ validator), registry JSONL,
the multi-line terminal panel, and the static HTML report."""

import io
import json
from types import SimpleNamespace

import pytest

from repro.errors import SimulationError
from repro.obs.dashboard import (
    MultiLineWriter,
    html_report,
    prometheus_text,
    registry_jsonl,
    render_dashboard,
    validate_prometheus_text,
)
from repro.obs.registry import FleetAggregator
from repro.obs.slo import default_slos, evaluate_fleet
from repro.ssd.metrics import ChannelUsage, SimMetrics


def _outcome(latencies=(100.0, 150.0, 900.0), **counters):
    """A finished cell: ``counters`` on SimMetrics, ``latencies`` read."""
    metrics = SimMetrics(elapsed_us=1e6, **counters)
    for value in latencies:
        metrics.record_read_latency(value)
    usage = ChannelUsage(cor=4e5, uncor=0.0, write=0.0, gc=0.0, eccwait=0.0,
                         idle=6e5)
    return SimpleNamespace(metrics=metrics, channel_usage=usage)


def _fleet():
    fleet = FleetAggregator()
    fleet.observe(SimpleNamespace(policy="RiFSSD"), _outcome(
        (55.0, 80.0, 120.0, 4000.0, 0.01, 5e7),  # under- and overflow
        page_reads=100))
    # a policy name that exercises label escaping
    fleet.observe(SimpleNamespace(policy='we"ird\\pol\n'),
                  _outcome((), page_reads=1))
    return fleet


# --- Prometheus exposition -------------------------------------------------


def test_prometheus_text_validates_and_counts():
    text = prometheus_text(_fleet())
    summary = validate_prometheus_text(text)
    assert summary["families"] == 20
    assert summary["histograms"] == 2
    assert "# TYPE ssd_page_reads_total counter" in text
    assert "# HELP ssd_page_reads_total page reads issued" in text
    # integer-valued samples render without a trailing .0
    assert 'ssd_page_reads_total{policy="RiFSSD"} 100\n' in text
    assert 'ssd_page_reads_total{policy="we\\"ird\\\\pol\\n"} 1\n' in text


def test_prometheus_histogram_buckets_are_cumulative_and_complete():
    text = prometheus_text(_fleet())
    counts = []
    for line in text.splitlines():
        if line.startswith('ssd_read_latency_us_bucket{policy="RiFSSD"'):
            counts.append(float(line.rsplit(" ", 1)[1]))
        if line.startswith('ssd_read_latency_us_count{policy="RiFSSD"'):
            total = float(line.rsplit(" ", 1)[1])
    assert counts == sorted(counts)  # cumulative => monotone
    assert counts[-1] == total == 6  # +Inf covers everything, overflow too
    # underflow is below every finite edge, so the first bucket sees it
    assert counts[0] >= 1


@pytest.mark.parametrize("bad_text,fragment", [
    ("metric{x=\"1\"} nope\n", "non-numeric"),
    ("# TYPE m bogus_kind\nm 1\n", "TYPE"),
    ("9metric 1\n", "malformed"),
])
def test_validator_rejects_malformed_exposition(bad_text, fragment):
    with pytest.raises(SimulationError) as err:
        validate_prometheus_text(bad_text)
    assert fragment.lower() in str(err.value).lower()


def test_validator_rejects_nonmonotone_buckets():
    bad = (
        '# TYPE h_us histogram\n'
        'h_us_bucket{le="1.0"} 5\n'
        'h_us_bucket{le="2.0"} 3\n'
        'h_us_bucket{le="+Inf"} 5\n'
        'h_us_sum 7\n'
        'h_us_count 5\n'
    )
    with pytest.raises(SimulationError):
        validate_prometheus_text(bad)


def test_validator_rejects_inf_count_mismatch():
    bad = (
        '# TYPE h_us histogram\n'
        'h_us_bucket{le="1.0"} 2\n'
        'h_us_bucket{le="+Inf"} 2\n'
        'h_us_sum 2\n'
        'h_us_count 3\n'
    )
    with pytest.raises(SimulationError):
        validate_prometheus_text(bad)


def test_registry_jsonl_one_object_per_sample():
    lines = registry_jsonl(_fleet()).strip().splitlines()
    records = [json.loads(line) for line in lines]
    names = {r["metric"] for r in records}
    assert {"ssd_page_reads_total", "ssd_elapsed_us",
            "ssd_read_latency_us"} <= names
    hist = next(r for r in records if r["metric"] == "ssd_read_latency_us"
                and r["labels"] == {"policy": "RiFSSD"})
    assert hist["hist"]["count"] == 6


# --- terminal panel --------------------------------------------------------


def test_multi_line_writer_rewrites_and_shrinks():
    buf = io.StringIO()
    writer = MultiLineWriter(buf)
    writer.update(["aaa", "bbb", "ccc"])
    writer.update(["dd"])  # shrinking frame must clear the stale lines
    writer.finish(["done"])
    out = buf.getvalue()
    assert "aaa" in out and "dd" in out and "done" in out
    assert "\x1b[3F" in out  # cursor-up over the 3-line frame
    assert out.endswith("\n")  # terminal left on a fresh line


def test_render_dashboard_rows_and_slo_column():
    fleet = FleetAggregator()
    fleet.observe(SimpleNamespace(policy="RiFSSD"),
                  _outcome(page_reads=100, retried_reads=10))
    reports = evaluate_fleet(fleet, default_slos())
    lines = render_dashboard(fleet, done=1, total=4, failed=0,
                             elapsed_s=2.0, slo_reports=reports)
    assert lines[0].startswith("── fleet 1/4 cells")
    assert any("RiFSSD" in line for line in lines)
    assert all(len(line) <= 100 for line in lines)
    # an empty fleet still renders something sensible
    empty = render_dashboard(FleetAggregator())
    assert "no latency samples" in "\n".join(empty)


def test_html_report_contains_verdicts():
    fleet = FleetAggregator()
    fleet.observe(SimpleNamespace(policy="SENC"), _outcome(
        page_reads=10, retried_reads=9, uncorrectable_transfers=9))
    reports = evaluate_fleet(fleet, default_slos())
    html = html_report(fleet, reports, title="SLO report")
    assert html.startswith("<!DOCTYPE html>") or "<html" in html
    assert "SENC" in html
    assert "wasted-transfers" in html  # 9/10 blows the 1% budget
    assert "class='fail'" in html
