"""Footnote-4 RiF recheck variant and the CSV exporter."""

import csv

import pytest

from repro.config import NandTimings
from repro.errors import ConfigError
from repro.experiments.export import export_directory, result_to_csv
from repro.experiments.registry import ExperimentResult
from repro.experiments.runner import main
from repro.ssd.ecc_model import EccOutcomeModel, ScriptedEccOutcomeModel
from repro.ssd.retry_policies import make_policy

from tests.plans import channel_time, compile_plan, plane_time

T = NandTimings()


# --- RiF re-read recheck (SecIV-C footnote 4) -----------------------------------


class _BadReretryModel(ScriptedEccOutcomeModel):
    """Scripted model whose voltage-adjusted re-reads can also fail."""

    def __init__(self, retried_success_script, rp_script=None):
        super().__init__(rp_script=rp_script)
        self._retried_script = list(retried_success_script)
        self._retried_cursor = 0

    def retried_decode(self, rber):
        from repro.ssd.ecc_model import DecodeDraw

        ok = self._next(self._retried_script, self._retried_cursor)
        self._retried_cursor += 1
        t = self.ecc.t_ecc_min if ok else self.ecc.t_ecc_max
        return DecodeDraw(success=ok, t_ecc=t)


def test_recheck_adds_tpred_when_reread_is_clean():
    base = make_policy("RiFSSD", T, ScriptedEccOutcomeModel(rp_script=[False]))
    checked = make_policy("RiFSSD", T,
                          ScriptedEccOutcomeModel(rp_script=[False]),
                          recheck_reread=True)
    plan_base = compile_plan(base, 0.01)
    plan_checked = compile_plan(checked, 0.01)
    # a clean re-read costs exactly one extra tPRED under recheck
    assert plane_time(plan_checked) == pytest.approx(
        plane_time(plan_base) + T.t_pred
    )
    assert plan_checked.senses == plan_base.senses


def test_recheck_catches_bad_reread_on_die():
    # initial page predicted bad; first re-read STILL undecodable, RP
    # catches it (rp verdicts: page bad, re-read bad); second re-read ok
    model = _BadReretryModel(retried_success_script=[False, True],
                             rp_script=[False, False])
    policy = make_policy("RiFSSD", T, model, recheck_reread=True)
    plan = compile_plan(policy, 0.01)
    assert plan.in_die_retry
    assert plan.senses == 3  # initial + two in-die re-reads
    assert plan.uncorrectable_transfers == 0
    # still exactly one off-chip transfer
    assert channel_time(plan) == pytest.approx(T.t_dma)


def test_without_recheck_bad_reread_is_shipped():
    model = _BadReretryModel(retried_success_script=[False, True],
                             rp_script=[False])
    policy = make_policy("RiFSSD", T, model)  # no recheck
    plan = compile_plan(policy, 0.01)
    # the bad re-read crosses the channel and fails off-chip
    assert plan.uncorrectable_transfers == 1
    assert channel_time(plan) > T.t_dma


def test_recheck_round_cap():
    model = _BadReretryModel(retried_success_script=[False] * 4 + [True] * 10,
                             rp_script=[False] * 12)
    policy = make_policy("RiFSSD", T, model, recheck_reread=True,
                         max_in_die_rounds=2)
    plan = compile_plan(policy, 0.01)
    # capped: initial + at most 2 in-die rounds, then reactive fallback
    assert plan.senses >= 3
    assert plan.uncorrectable_transfers >= 1


def test_recheck_statistical_effect():
    """With a *bad* voltage selector (high residual RBER) the recheck
    variant ships fewer uncorrectable pages than plain RiF."""
    def uncor_count(recheck):
        model = EccOutcomeModel(seed=3, retry_rber_factor=0.9)
        policy = make_policy("RiFSSD", T, model, recheck_reread=recheck)
        total = 0
        for _ in range(300):
            total += compile_plan(policy, 0.012).uncorrectable_transfers
        return total

    assert uncor_count(True) <= uncor_count(False)


def test_recheck_validation():
    with pytest.raises(ConfigError):
        make_policy("RiFSSD", T, EccOutcomeModel(), recheck_reread=True,
                    max_in_die_rounds=0)


# --- CSV export ---------------------------------------------------------------------


def _demo_result():
    return ExperimentResult(
        "demo", "demo title",
        rows=[{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}],
        headline={"metric": 9.0},
        notes="a note",
    )


def test_result_to_csv_roundtrip(tmp_path):
    path = result_to_csv(_demo_result(), tmp_path / "demo.csv")
    with path.open() as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    assert rows[0] == ["a", "b"]
    assert rows[1] == ["1", "2.5"]
    text = path.read_text()
    assert "# headline metric = 9.0" in text
    assert "# a note" in text


def test_export_directory(tmp_path):
    paths = export_directory([_demo_result()], tmp_path / "out")
    assert paths[0].exists()
    assert paths[0].name == "demo.csv"


def test_empty_export_rejected(tmp_path):
    empty = ExperimentResult("e", "t", rows=[])
    with pytest.raises(ConfigError):
        result_to_csv(empty, tmp_path / "e.csv")


def test_runner_csv_flag(tmp_path, capsys):
    assert main(["table1", "--csv", str(tmp_path)]) == 0
    assert (tmp_path / "table1.csv").exists()
