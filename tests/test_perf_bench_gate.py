"""The bench-gate machinery: result serialisation, gate logic, CLI exit
codes, and the profiling harness — everything except actually timing the
heavy pinned suite (covered by the ``bench-smoke`` CI job)."""

import json

import pytest

from repro.campaign.spec import RunSpec
from repro.perf.bench_gate import (
    BASELINE_CAP_FACTOR,
    DEFAULT_TOLERANCE,
    MICRO_FLOOR,
    OVERHEAD_FLOOR,
    BenchResult,
    evaluate_gate,
    format_verdicts,
    load_results,
    results_payload,
    write_results,
)
from repro.perf.profile import profile_spec


def _result(name, kind, speedup):
    return BenchResult(name=name, kind=kind, optimized_s=1.0,
                       reference_s=float(speedup))


# --- gate logic ---------------------------------------------------------------------


def test_floor_only_gate_without_baseline():
    verdicts = evaluate_gate([
        _result("micro_ok", "micro", MICRO_FLOOR + 1.0),
        _result("micro_bad", "micro", 1.0),
        _result("overhead_ok", "overhead", 1.0),
        _result("overhead_bad", "overhead", 0.5),
    ], baseline=None)
    by_name = {v.name: v for v in verdicts}
    assert by_name["micro_ok"].passed
    assert not by_name["micro_bad"].passed
    assert by_name["overhead_ok"].passed
    assert not by_name["overhead_bad"].passed


def test_gate_flags_regression_vs_baseline():
    baseline = {"syndrome": {"speedup": 3.0}}
    # 15% tolerance of a 3x baseline means >= 2.55x is required
    ok = evaluate_gate([_result("syndrome", "micro", 2.8)], baseline)
    bad = evaluate_gate([_result("syndrome", "micro", 2.4)], baseline)
    assert ok[0].passed and "baseline" in ok[0].detail
    assert not bad[0].passed
    assert bad[0].required == pytest.approx(3.0 * (1 - DEFAULT_TOLERANCE))


def test_gate_caps_baseline_requirement_far_above_floor():
    # a 30x baseline must not demand 25.5x — noise at that magnitude is
    # several x; the requirement saturates at cap * (1 - tolerance)
    baseline = {"memo": {"speedup": 30.0}}
    verdict = evaluate_gate([_result("memo", "micro", 10.0)], baseline)[0]
    cap = MICRO_FLOOR * BASELINE_CAP_FACTOR
    assert verdict.required == pytest.approx(cap * (1 - DEFAULT_TOLERANCE))
    assert verdict.passed


def test_gate_floor_still_binds_when_baseline_is_low():
    # a baseline that itself sits below the floor must not weaken the gate
    baseline = {"m": {"speedup": 1.2}}
    verdict = evaluate_gate([_result("m", "micro", 1.5)], baseline)[0]
    assert not verdict.passed
    assert verdict.required == pytest.approx(MICRO_FLOOR * (1 - DEFAULT_TOLERANCE))


def test_new_benchmark_without_baseline_entry_uses_floor():
    baseline = {"other": {"speedup": 50.0}}
    verdict = evaluate_gate([_result("fresh", "micro", MICRO_FLOOR + 0.1)],
                            baseline)[0]
    assert verdict.passed
    assert "floor" in verdict.detail


def test_overhead_kind_is_a_tolerance_exempt_hard_cap():
    # the metrics-overhead guard: metered/unmetered ratio may not fall
    # below 1/1.05 no matter how generous --tolerance is, and a baseline
    # entry must not tighten or loosen it either
    baseline = {"metrics_overhead": {"speedup": 1.0}}
    ok = evaluate_gate([_result("metrics_overhead", "overhead", 0.99)],
                       baseline, tolerance=0.5)[0]
    assert ok.passed
    assert ok.required == pytest.approx(OVERHEAD_FLOOR)
    bad = evaluate_gate([_result("metrics_overhead", "overhead", 0.90)],
                        baseline, tolerance=0.5)[0]
    assert not bad.passed
    assert bad.required == pytest.approx(OVERHEAD_FLOOR)
    assert "overhead" in bad.detail
    # boundary: exactly at the cap passes
    at_cap = evaluate_gate(
        [_result("metrics_overhead", "overhead", OVERHEAD_FLOOR)], None)[0]
    assert at_cap.passed


def test_format_verdicts_mentions_failures():
    text = format_verdicts(evaluate_gate([_result("slow", "micro", 1.0)], None))
    assert "FAIL" in text and "slow" in text


# --- serialisation ------------------------------------------------------------------


def test_results_roundtrip(tmp_path):
    results = [_result("a", "micro", 3.0), _result("b", "overhead", 1.0)]
    path = tmp_path / "bench.json"
    write_results(results, path)
    loaded = load_results(path)
    assert loaded["a"]["speedup"] == pytest.approx(3.0)
    assert loaded["b"]["kind"] == "overhead"
    payload = results_payload(results)
    assert payload["schema"] == 1
    assert "pinned" in payload


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"schema": 99, "benchmarks": {}}))
    with pytest.raises(ValueError):
        load_results(path)


# --- CLI ----------------------------------------------------------------------------


def test_cli_check_exit_codes(tmp_path, monkeypatch):
    from repro.perf import __main__ as cli

    def fake_suite(**kwargs):
        return [_result("syndrome_pruned", "micro", 5.0)]

    monkeypatch.setattr(cli, "run_suite", fake_suite)
    monkeypatch.chdir(tmp_path)
    # no baseline: floors only, 5x passes
    assert cli.main(["check", "--no-e2e"]) == 0
    assert (tmp_path / "BENCH_current.json").exists()
    # a demanding baseline turns the same run into a failure
    write_results([_result("syndrome_pruned", "micro", 50.0)],
                  tmp_path / "BENCH_baseline.json")
    assert cli.main(["check", "--no-e2e"]) == 1


def test_cli_record_writes_named_outputs(tmp_path, monkeypatch):
    from repro.perf import __main__ as cli

    monkeypatch.setattr(cli, "run_suite",
                        lambda **kwargs: [_result("x", "micro", 4.0)])
    monkeypatch.chdir(tmp_path)
    assert cli.main(["record", "--no-e2e"]) == 0
    assert (tmp_path / "BENCH_current.json").exists()
    assert cli.main(["record", "--no-e2e", "--baseline"]) == 0
    assert (tmp_path / "BENCH_baseline.json").exists()


# --- profiling harness --------------------------------------------------------------


def test_profile_spec_reports_phases_and_subsystems():
    spec = RunSpec(workload="Ali2", policy="RiFSSD", pe_cycles=1000.0,
                   n_requests=300, seed=7)
    report = profile_spec(spec, top=5)
    assert set(report.phases) == {"build_trace", "build_simulator", "run_trace"}
    assert report.total_seconds > 0
    assert "repro/ssd" in report.subsystems
    # the ssd bucket split by module: every group a read crosses, adding
    # up to the bucket
    assert {"events", "resources", "read_pipeline", "retry_policies",
            "reliability", "ftl", "simulator"} <= set(report.ssd_modules)
    assert sum(report.ssd_modules.values()) == pytest.approx(
        report.subsystems["repro/ssd"])
    assert len(report.top_functions) == 5
    # resource probes aggregated by class, not instance
    assert any(key.startswith("plane:") for key in report.sim_busy_us)
    # a parametric drive keeps one memo table per key: lpn, page, block
    names = [c["name"] for c in report.cache_stats]
    assert names == ["reliability.cold_age", "rber.variation_factor",
                     "rber.block_factor"]
    table = report.format_table()
    assert "hottest functions" in table
    assert "repro/ssd self-time by module" in table
    for name in names:  # one line per cache, straight from cache_stats()
        assert f"  {name} " in table
    json.dumps(report.to_dict())  # JSON-ready
