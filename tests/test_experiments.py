"""Experiment registry and the fast deterministic experiments."""

import pytest

from repro.errors import ConfigError
from repro.experiments import EXPERIMENTS, get_experiment
from repro.experiments.registry import ExperimentResult, register
from repro.experiments.runner import main


EXPECTED_IDS = {
    "fig3", "fig4", "fig6", "fig7", "fig10", "fig11", "fig12", "fig14",
    "fig17", "fig18", "fig19", "table1", "table2", "overhead",
    "chaos", "frontier",
}


def test_every_paper_artifact_registered():
    assert EXPECTED_IDS == set(EXPERIMENTS)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        get_experiment("fig99")


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigError):
        register("fig3", "again")(lambda **kw: None)


def test_result_table_formatting():
    result = ExperimentResult(
        "demo", "a demo", rows=[{"a": 1, "b": 2.5}, {"a": 3}],
        headline={"x": 1.0}, notes="note",
    )
    text = result.format_table()
    assert "demo" in text and "a" in text and "note" in text
    assert result.column_names() == ["a", "b"]


def test_table1_validates_paper_config():
    result = get_experiment("table1").run()
    values = {row["parameter"]: row["value"] for row in result.rows}
    assert values["channels"] == 8
    assert values["tPRED_us"] == 2.5
    assert result.headline["aggregate_channel_GB_s"] > 8.0


def test_overhead_matches_paper_numbers():
    result = get_experiment("overhead").run()
    measured = {row["metric"]: row["measured"] for row in result.rows}
    assert measured["area_mm2"] == pytest.approx(0.012, rel=0.1)
    assert measured["power_mw"] == pytest.approx(1.28, rel=0.1)
    assert measured["energy_per_prediction_nj"] == pytest.approx(3.2, rel=0.1)
    assert result.headline["net_saving_per_suppressed_transfer_nj"] > 0


def test_fig7_timeline_reproduces_paper_ordering():
    result = get_experiment("fig7").run()
    spans = {row["policy"]: row["makespan_us"] for row in result.rows}
    # the paper's ordering and rough magnitudes: 252 / 418 / 292
    assert spans["SSDzero"] < spans["RiFSSD"] < spans["SSDone"]
    assert spans["SSDzero"] == pytest.approx(252.0, rel=0.05)
    assert spans["SSDone"] == pytest.approx(418.0, rel=0.05)
    assert spans["RiFSSD"] == pytest.approx(292.0, rel=0.05)
    uncor = {row["policy"]: row["uncor_transfers"] for row in result.rows}
    assert uncor["SSDzero"] == 0
    assert uncor["SSDone"] == 8
    assert uncor["RiFSSD"] == 0


def test_fig4_anchors():
    result = get_experiment("fig4").run(scale="small", seed=3)
    headline = result.headline
    assert headline["pe0_first_retry_day"] == pytest.approx(17.0, rel=0.08)
    assert headline["pe500_first_retry_day"] == pytest.approx(10.0, rel=0.08)
    assert headline["pe1000_first_retry_day"] == pytest.approx(8.0, rel=0.08)


def test_table2_errors_small():
    result = get_experiment("table2").run(scale="small", seed=2)
    assert result.headline["worst_read_ratio_error"] < 0.05
    assert result.headline["worst_cold_ratio_error"] < 0.06


def test_runner_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig17" in out and "table2" in out


def test_runner_executes_experiment(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "finished" in out


@pytest.mark.parametrize("argv, message", [
    (["report-trace", "GARBAGE"], "not a Chrome trace_event JSON export"),
    (["report-trace", "MISSING"], "No such file"),
    (["bogus"], "unknown experiment 'bogus'"),
    (["table1", "bogus"], "unknown experiment 'bogus'"),
], ids=["trace-garbage", "trace-missing", "unknown-id", "unknown-after-known"])
def test_runner_reports_bad_input_as_an_error(argv, message, tmp_path, capsys):
    """A file that is no trace export, a missing file and an unknown id
    are ``error: ...`` with exit 2, never a traceback; no experiment runs
    before an unknown id is reported."""
    garbage = tmp_path / "garbage.json"
    garbage.write_text("garbage")
    paths = {"GARBAGE": str(garbage), "MISSING": str(tmp_path / "absent.json")}
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert "finished" not in captured.out
