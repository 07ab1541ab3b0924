"""Declarative SLO engine: spec validation, round-trips, latency/budget
verdicts, and windowed burn-rate evaluation."""

import pytest

from repro.errors import ConfigError
from repro.obs.__main__ import main as obs_main
from repro.obs.histogram import LatencyHistogram
from repro.obs.slo import (
    BurnRateRule,
    LatencyObjective,
    SloSpec,
    default_slos,
    evaluate_slo,
    load_slos,
    max_burn_rate,
    windows_from_snapshots,
)


def _hist(values):
    hist = LatencyHistogram()
    for v in values:
        hist.record(v)
    return hist


# --- spec validation and round-trips ---------------------------------------


def test_objective_and_rule_validation():
    assert LatencyObjective(99.9, 500.0).name == "p999"
    assert LatencyObjective(50.0, 100.0).name == "p50"
    with pytest.raises(ConfigError):
        LatencyObjective(0.0, 100.0)
    with pytest.raises(ConfigError):
        LatencyObjective(101.0, 100.0)
    with pytest.raises(ConfigError):
        LatencyObjective(99.0, 0.0)
    with pytest.raises(ConfigError):
        BurnRateRule(window=0, max_burn_rate=1.0)
    with pytest.raises(ConfigError):
        BurnRateRule(window=2, max_burn_rate=0.0)


def test_spec_validation():
    with pytest.raises(ConfigError):
        SloSpec(name="")
    with pytest.raises(ConfigError):
        SloSpec(name="x", error_budget=1.5)
    with pytest.raises(ConfigError):
        SloSpec(name="x", bad_event="not_a_counter")
    with pytest.raises(ConfigError):
        # burn rules are meaningless without a budget to burn
        SloSpec(name="x", burn_rules=(BurnRateRule(1, 1.0),))


def test_spec_json_roundtrip_and_load():
    spec = SloSpec(
        name="tail",
        objectives=(LatencyObjective(99.0, 120.0),
                    LatencyObjective(99.9, 400.0)),
        error_budget=0.05,
        bad_event="uncorrectable_transfers",
        burn_rules=(BurnRateRule(3, 2.0),),
    )
    assert SloSpec.from_dict(spec.to_dict()) == spec
    # load_slos accepts a single spec or a list
    assert load_slos(spec.to_dict()) == [spec]
    assert load_slos([spec.to_dict(), spec.to_dict()]) == [spec, spec]
    for spec in default_slos():
        assert SloSpec.from_dict(spec.to_dict()) == spec


# --- evaluation ------------------------------------------------------------


def test_latency_objectives_pass_and_fail():
    spec = SloSpec(name="tail", objectives=(LatencyObjective(50.0, 100.0),
                                            LatencyObjective(99.0, 150.0)))
    report = evaluate_slo(spec, _hist([50.0] * 95 + [1000.0] * 5), 0, 0,
                          subject="cellA")
    assert report.subject == "cellA"
    by_rule = {v.rule: v for v in report.verdicts}
    assert by_rule["p50"].ok
    assert not by_rule["p99"].ok  # the 1000us outliers own the p99 rank
    assert not report.passed


def test_empty_histogram_fails_latency_as_no_data():
    spec = SloSpec(name="tail", objectives=(LatencyObjective(99.0, 100.0),))
    for hist in (None, LatencyHistogram()):
        report = evaluate_slo(spec, hist, 0, 0)
        assert not report.passed
        assert report.verdicts[0].observed is None
        assert "no latency samples" in report.verdicts[0].detail


def test_error_budget_verdict():
    spec = SloSpec(name="budget", error_budget=0.1)
    ok = evaluate_slo(spec, None, bad=5, total=100)
    assert ok.passed and ok.verdicts[0].observed == pytest.approx(0.05)
    blown = evaluate_slo(spec, None, bad=20, total=100)
    assert not blown.passed
    # zero total events: nothing observed, budget trivially honoured
    assert evaluate_slo(spec, None, bad=0, total=0).passed


def test_burn_rules_only_fire_with_windows():
    spec = SloSpec(name="burn", error_budget=0.1,
                   burn_rules=(BurnRateRule(1, 2.0), BurnRateRule(2, 1.5)))
    # cumulative-only evaluation: burn rules skipped, not failed
    report = evaluate_slo(spec, None, bad=1, total=100)
    assert {v.kind for v in report.verdicts} == {"budget"}
    # a single hot slice (30% bad = 3x budget) trips the fast-burn rule
    windows = [(0.0, 50.0), (15.0, 50.0), (0.0, 50.0)]
    report = evaluate_slo(spec, None, bad=15, total=150, windows=windows)
    burn = {v.rule: v for v in report.verdicts if v.kind == "burn"}
    assert not burn["1w"].ok
    assert burn["1w"].observed == pytest.approx(3.0)
    # the 2-slice window dilutes it to 15/100 = 1.5x, right at the limit
    assert burn["2w"].ok
    assert burn["2w"].observed == pytest.approx(1.5)


def test_max_burn_rate_edges():
    budget = 0.1
    # no totals anywhere: burn undefined, not zero
    assert max_burn_rate([(0.0, 0.0), (0.0, 0.0)], 1, budget) is None
    assert max_burn_rate([], 1, budget) is None
    # window longer than the series degrades to whole-series burn
    assert max_burn_rate([(1.0, 10.0)], 5, budget) == pytest.approx(1.0)
    # all-zero slices between events don't divide by zero
    assert max_burn_rate([(0.0, 0.0), (2.0, 10.0)], 1, budget) == \
        pytest.approx(2.0)


def test_windows_from_snapshots_duck_typing():
    class Snap:
        def __init__(self, counters):
            self.counters = counters

    snaps = [Snap({"retried_reads": 3.0, "page_reads": 10.0}),
             Snap({"page_reads": 5.0})]
    assert windows_from_snapshots(snaps, "retried_reads", "page_reads") == \
        [(3.0, 10.0), (0.0, 5.0)]


@pytest.mark.parametrize("cell, message", [
    ("Ali124:RiFSSD:abc", "--burn expects workload:policy:pe"),
    ("Ali124:RiFSSD", "--burn expects workload:policy:pe"),
    ("Ali999:RiFSSD:1000", "unknown workload 'Ali999'"),
    ("Ali124:Bogus:1000", "unknown policy 'Bogus'"),
])
def test_slo_report_rejects_a_malformed_burn_cell(cell, message, capsys):
    """A ``--burn`` cell that is not workload:policy:<number>, or names an
    unknown workload or policy, is a config error: ``error: ...`` and
    exit 2, before any cell runs."""
    assert obs_main(["slo-report", "--burn", cell]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}"), err
