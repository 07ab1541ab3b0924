"""The fleet rollup: per-policy sums of SimMetrics and ChannelUsage fields,
the schema-1 layout it exports, and saved rollups and telemetry records
treated as outside input."""

import copy
import json

import pytest

from repro.campaign.progress import cell_report
from repro.campaign.spec import RunSpec, build_simulator, build_trace
from repro.errors import ConfigError
from repro.fleet.__main__ import main as fleet_main
from repro.obs.__main__ import main as obs_main
from repro.obs.registry import FleetAggregator

SPEC = RunSpec(workload="Ali124", policy="RiFSSD", pe_cycles=2000.0,
               n_requests=120, seed=7)
SENC_SPEC = RunSpec(workload="Ali124", policy="SENC", pe_cycles=2000.0,
                    n_requests=120, seed=7)


def _run_cell(spec=SPEC):
    ssd = build_simulator(spec)
    result = ssd.run_trace(build_trace(spec), mode="closed",
                           queue_depth=spec.resolved_sizing().queue_depth)
    return ssd, result


# --- the rollup is a sum of the simulator's counters -------------------------


def test_rollup_channel_time_is_the_summed_channel_usage():
    results = [_run_cell(spec)[1]
               for spec in (SPEC, RunSpec(**{**SPEC.to_dict(), "seed": 8}))]
    fleet = FleetAggregator()
    for result in results:
        fleet.observe(SPEC, result)
    for field in ("cor", "uncor", "write", "gc", "eccwait", "idle"):
        assert fleet.total("RiFSSD", field) == \
            sum(getattr(r.channel_usage, field) for r in results)
    assert fleet.total("RiFSSD", "page_reads") == \
        sum(r.metrics.page_reads for r in results)
    # the exported Fig.-18 taxonomy reads the same sums
    tags = {labels[1]: value for family, samples in fleet.families()
            if family.name == "ssd_channel_time_us_total"
            for labels, value in samples}
    assert tags["COR"] == fleet.total("RiFSSD", "cor") > 0
    assert tags["IDLE"] == fleet.total("RiFSSD", "idle") > 0


def test_rp_mispredicts_counted_for_prediction_policies():
    """Only policies that predict (RPSSD/RiFSSD) can expose mispredicts;
    SENC never sets a prediction so its counter stays zero."""
    fleet = FleetAggregator()
    rif = [_run_cell(SPEC)[1], _run_cell(RunSpec(**{**SPEC.to_dict(),
                                                    "pe_cycles": 1000.0}))[1]]
    for result in rif:
        fleet.observe(SPEC, result)
    fleet.observe(SENC_SPEC, _run_cell(SENC_SPEC)[1])
    assert fleet.total("SENC", "rp_mispredicts") == 0
    assert fleet.total("RiFSSD", "rp_mispredicts") == \
        sum(r.metrics.rp_mispredicts for r in rif)


def test_total_rejects_a_field_the_rollup_does_not_sum():
    with pytest.raises(ConfigError, match="does not sum"):
        FleetAggregator().total("RiFSSD", "adaptive_state")
    # a policy without an ok cell sums to zero
    assert FleetAggregator().total("RiFSSD", "page_reads") == 0.0


# --- saved rollups and telemetry are outside input ---------------------------


@pytest.fixture(scope="module")
def saved_rollup():
    fleet = FleetAggregator()
    fleet.observe(SPEC, _run_cell()[1])
    return fleet.to_dict()


@pytest.fixture(scope="module")
def cell_record():
    return cell_report(SPEC, _run_cell()[1], 0.1, cached=False)


def _family(rollup: dict, name: str) -> dict:
    return next(item for item in rollup["registry"]["families"]
                if item["name"] == name)


def _label(family: str, value: str):
    def corrupt(rollup):
        _family(rollup, family)["children"][0]["labels"][1] = value
    return corrupt


def _unknown_family(rollup):
    rollup["registry"]["families"].append(
        {"name": "ssd_bogus_total", "kind": "counter", "children": []})


def _extra_label(rollup):
    _family(rollup, "ssd_page_reads_total")["children"][0]["labels"].append(
        "extra")


def _drop(family: str, key: str):
    def corrupt(rollup):
        del _family(rollup, family)["children"][0][key]
    return corrupt


def _rollup_file(corrupt):
    """``obs slo-report`` over a saved rollup that ``corrupt`` edited."""
    def case(tmp_path, rollup, _record):
        rollup = copy.deepcopy(rollup)
        corrupt(rollup)
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(rollup))
        return obs_main, ["slo-report", "--fleet", str(path)]
    return case


def _text_file(main, *command, text="not json {"):
    """A CLI command whose NOT_JSON arguments name a file holding ``text``."""
    def case(tmp_path, _rollup, _record):
        path = tmp_path / "fleet.json"
        path.write_text(text)
        return main, [str(path) if arg == "NOT_JSON" else arg
                      for arg in command]
    return case


def _missing_file(main, *command):
    """A CLI command whose MISSING argument names no file."""
    def case(tmp_path, _rollup, _record):
        return main, [str(tmp_path / "absent.json") if arg == "MISSING"
                      else arg for arg in command]
    return case


def _record_without_share(tmp_path, _rollup, record):
    record = {key: value for key, value in record.items() if key != "rollup"}
    path = tmp_path / "campaign.jsonl"
    path.write_text(json.dumps(record) + "\n")
    return obs_main, ["dashboard", "--telemetry", str(path)]


@pytest.mark.parametrize("case, message", [
    pytest.param(_rollup_file(_unknown_family),
                 "unknown fleet rollup family 'ssd_bogus_total'",
                 id="unknown-family"),
    pytest.param(_rollup_file(_extra_label), "expected labels",
                 id="label-count"),
    pytest.param(_rollup_file(_label("fleet_cells_total", "meh")),
                 "unknown status 'meh'", id="unknown-status"),
    pytest.param(_rollup_file(_label("ssd_retries_total", "warp")),
                 "unknown hop 'warp'", id="unknown-hop"),
    pytest.param(_rollup_file(_label("ssd_channel_time_us_total", "NAP")),
                 "unknown tag 'NAP'", id="unknown-tag"),
    pytest.param(_rollup_file(_drop("ssd_page_reads_total", "value")),
                 "child has no value", id="no-value"),
    pytest.param(_rollup_file(_drop("ssd_read_latency_us", "hist")),
                 "child has no hist", id="no-hist"),
    pytest.param(_text_file(obs_main, "slo-report", "--fleet", "NOT_JSON"),
                 "is not a JSON fleet rollup", id="obs-not-json"),
    pytest.param(_text_file(obs_main, "dashboard", "--fleet", "NOT_JSON",
                            text="[1, 2]"),
                 "is not a JSON fleet rollup", id="obs-not-object"),
    pytest.param(_text_file(fleet_main, "report", "NOT_JSON"),
                 "is not a JSON fleet rollup", id="fleet-report-not-json"),
    pytest.param(_text_file(fleet_main, "diff", "NOT_JSON", "NOT_JSON",
                            text="7"),
                 "is not a JSON fleet rollup", id="fleet-diff-not-object"),
    pytest.param(_text_file(obs_main, "slo-report", "--fleet", "NOT_JSON",
                            text='{"drives": 2, "failed": [1]}'),
                 "cells, cached and failed are counts", id="run-payload"),
    pytest.param(_record_without_share, "has no rollup share",
                 id="record-without-share"),
    pytest.param(_text_file(obs_main, "dashboard", "--telemetry", "NOT_JSON",
                            text='{"event": "start", "total": 1}\nnot json\n'),
                 ":2 is not a JSON telemetry record", id="telemetry-not-json"),
    pytest.param(_text_file(obs_main, "dashboard", "--telemetry", "NOT_JSON",
                            text='[{"event": "cell"}]\n'),
                 ":1 is not a JSON telemetry record",
                 id="telemetry-not-object"),
    pytest.param(_text_file(fleet_main, "run", "--spec", "NOT_JSON",
                            text="garbage"),
                 "is not a JSON fleet spec", id="fleet-run-spec-not-json"),
    pytest.param(_text_file(fleet_main, "generate", "--spec", "NOT_JSON",
                            text="garbage"),
                 "is not a JSON fleet spec", id="fleet-generate-spec-not-json"),
    pytest.param(_text_file(fleet_main, "generate", "--spec", "NOT_JSON",
                            text='{"seed": 3}'),
                 "missing FleetSpec fields ['n_drives']",
                 id="fleet-spec-missing-field"),
    pytest.param(_text_file(obs_main, "slo-report", "--slo", "NOT_JSON",
                            text="garbage"),
                 "is not a JSON SLO spec", id="slo-not-json"),
    pytest.param(_text_file(obs_main, "slo-report", "--slo", "NOT_JSON",
                            text='{"objectives": []}'),
                 "SLO spec has no 'name'", id="slo-missing-name"),
    pytest.param(_text_file(obs_main, "slo-report", "--slo", "NOT_JSON",
                            text="[1, 2]"),
                 "SLO spec must be a JSON object", id="slo-item-not-object"),
    pytest.param(_text_file(fleet_main, "generate", "--spec", "NOT_JSON",
                            text='{"n_drives": "x"}'),
                 "fleet spec field 'n_drives' must be int, got 'x'",
                 id="fleet-spec-wrong-type"),
    pytest.param(_text_file(obs_main, "slo-report", "--slo", "NOT_JSON",
                            text='[{"name": "x", "error_budget": "a", '
                                 '"bad_event": "retried_reads", '
                                 '"event_total": "page_reads"}]'),
                 "SLO spec field 'error_budget' must be int or float or "
                 "null, got 'a'", id="slo-wrong-type"),
    pytest.param(_text_file(obs_main, "slo-report", "--slo", "NOT_JSON",
                            text='{"name": "typo", "error_budgte": 0.01, '
                                 '"bad_event": "uncorrectable_transfers", '
                                 '"event_total": "page_reads"}'),
                 "SLO spec has unknown fields ['error_budgte']",
                 id="slo-unknown-key"),
    pytest.param(_missing_file(obs_main, "dashboard", "--telemetry", "MISSING"),
                 "No such file", id="telemetry-missing"),
    pytest.param(_missing_file(fleet_main, "run", "--spec", "MISSING"),
                 "No such file", id="fleet-spec-missing"),
])
def test_saved_rollups_and_telemetry_are_outside_input(
        case, message, saved_rollup, cell_record, tmp_path, capsys):
    """A saved rollup or telemetry log the rollup cannot read is a config
    error at the CLI: ``error: ...`` and exit 2, never a traceback or a
    silently partial rollup."""
    assert FleetAggregator.from_dict(saved_rollup).to_dict() == saved_rollup
    main, argv = case(tmp_path, saved_rollup, cell_record)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_dashboard_skips_the_torn_tail_of_an_in_flight_log(
        cell_record, tmp_path, capsys):
    """The unterminated last line of a log still being written is left
    out, as the run ledger leaves out a torn tail: the panel counts the
    complete records."""
    complete = "".join(json.dumps(record) + "\n" for record in (
        {"event": "start", "total": 2}, cell_record))
    torn = json.dumps(cell_record)
    path = tmp_path / "campaign.jsonl"
    panels = []
    for text in (complete + torn[:len(torn) // 2], complete):
        path.write_text(text)
        assert obs_main(["dashboard", "--telemetry", str(path)]) == 0
        panels.append(capsys.readouterr().out)
    assert "fleet 1/2 cells" in panels[0]
    assert panels[0] == panels[1]


@pytest.mark.parametrize("command", ["scrape", "slo-report"])
def test_interrupted_grid_prints_the_resume_hint(command, tmp_path,
                                                 monkeypatch, capsys):
    """Ctrl-C or SIGTERM while ``obs`` runs a grid under a ledger is
    ``interrupted:`` and the ledger's resume hint on stderr with exit 130,
    as from ``fleet run``, never an ``error:`` line."""
    import repro.campaign.executor as executor

    def interrupt(spec, trace=None):
        raise KeyboardInterrupt
    monkeypatch.setattr(executor, "execute", interrupt)
    ledger = tmp_path / "ledger"
    assert obs_main([command, "--pe", "2000", "--ledger", str(ledger)]) == 130
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("interrupted: campaign interrupted"), err
    assert err[1].startswith("hint: re-run the identical grid with "
                             f"ledger_dir={str(ledger)!r}"), err
