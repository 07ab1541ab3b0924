"""The seven read-retry policies: plan structure and cost accounting."""

import pytest

from repro.config import EccConfig, NandTimings
from repro.errors import ConfigError
from repro.ssd.ecc_model import ScriptedEccOutcomeModel
from repro.ssd.retry_policies import (
    K_SENSE,
    K_TRANSFER,
    MAX_RETRY_ROUNDS,
    PolicyName,
    TAG_COR,
    TAG_UNCOR,
    make_policy,
)

from tests.plans import channel_time, compile_plan, kinds, plane_time

T = NandTimings()


def _policy(name, decode_script=None, rp_script=None, **kwargs):
    model = ScriptedEccOutcomeModel(decode_script=decode_script,
                                    rp_script=rp_script)
    return make_policy(name, T, model, **kwargs)


def test_registry_covers_all_policies():
    for name in PolicyName:
        policy = _policy(name.value)
        assert policy.name is name


def test_unknown_policy_rejected():
    # a ConfigError (not a bare ValueError/KeyError) that names every
    # valid policy, including the adaptive family
    with pytest.raises(ConfigError, match="SSDtwo") as exc_info:
        _policy("SSDtwo")
    message = str(exc_info.value)
    for name in PolicyName:
        assert name.value in message
    assert "OVCSSD" in message and "OCASSD" in message \
        and "RVPSSD" in message


# --- SSDzero -------------------------------------------------------------------


def test_ssdzero_single_clean_round():
    plan = compile_plan(_policy("SSDzero"), 0.02)
    assert kinds(plan) == [K_SENSE, K_TRANSFER]
    assert plan.phases[0].duration == T.t_read
    assert plan.phases[1].tag == TAG_COR
    assert not plan.retried
    assert plan.senses == 1
    assert plan.uncorrectable_transfers == 0


# --- SSDone --------------------------------------------------------------------


def test_ssdone_success_is_one_round():
    plan = compile_plan(_policy("SSDone", decode_script=[True]), 0.001)
    assert len(plan.phases) == 2
    assert not plan.retried


def test_ssdone_failure_costs_exactly_one_extra_round():
    plan = compile_plan(_policy("SSDone", decode_script=[False]), 0.01)
    assert kinds(plan) == [K_SENSE, K_TRANSFER] * 2
    assert plan.retried
    assert plan.uncorrectable_transfers == 1
    assert plan.phases[1].tag == TAG_UNCOR
    assert plan.phases[1].decode_us == EccConfig().t_ecc_max
    assert plan.phases[3].tag == TAG_COR
    assert plan.phases[3].decode_us == EccConfig().t_ecc_min


# --- Sentinel ------------------------------------------------------------------


def test_senc_failure_includes_sentinel_read():
    # bernoulli in the scripted model returns p >= 1, so force the extra
    # read by setting p_extra_read = 1 and no vref miss
    policy = _policy("SENC", decode_script=[False],
                     p_extra_read=1.0, p_vref_miss=0.0)
    plan = compile_plan(policy, 0.01)
    # round 1 (fail) + sentinel read (no decode) + retry round
    assert kinds(plan) == [K_SENSE, K_TRANSFER] * 3
    sentinel_xfer = plan.phases[3]
    assert sentinel_xfer.decode_us is None  # not gated on the LDPC buffer
    assert sentinel_xfer.tag == TAG_UNCOR
    assert plan.uncorrectable_transfers == 2


def test_senc_without_extra_read_matches_ssdone_shape():
    policy = _policy("SENC", decode_script=[False],
                     p_extra_read=0.0, p_vref_miss=0.0)
    plan = compile_plan(policy, 0.01)
    assert len(plan.phases) == 4


def test_senc_probability_validation():
    with pytest.raises(ConfigError):
        _policy("SENC", p_extra_read=1.5)


# --- Swift-Read ----------------------------------------------------------------


def test_swr_retry_is_single_command_double_sense():
    plan = compile_plan(_policy("SWR", decode_script=[False]), 0.01)
    assert kinds(plan) == [K_SENSE, K_TRANSFER] * 2
    retry_sense = plan.phases[2]
    assert retry_sense.duration == T.t_read + T.t_swift_extra
    assert plan.senses == 3  # 1 + 2 in-command senses
    assert plan.in_die_retry is False


def test_swr_plus_tracked_read_behaves_healthy():
    # scripted bernoulli(p) is p >= 1: p_tracked=1.0 -> always tracked
    policy = _policy("SWR+", decode_script=[False], p_tracked=1.0)
    plan = compile_plan(policy, 0.01)
    assert len(plan.phases) == 2
    assert plan.phases[1].tag == TAG_COR


def test_swr_plus_untracked_falls_back_to_swr():
    policy = _policy("SWR+", decode_script=[False], p_tracked=0.0)
    plan = compile_plan(policy, 0.01)
    assert len(plan.phases) == 4


# --- RPSSD ---------------------------------------------------------------------


def test_rpssd_aborts_doomed_decode_after_tpred():
    policy = _policy("RPSSD", rp_script=[False], decode_script=[False])
    plan = compile_plan(policy, 0.01)
    assert plan.rp_predicted_retry is True
    first_transfer = plan.phases[1]
    assert first_transfer.tag == TAG_UNCOR
    assert first_transfer.decode_us == T.t_pred  # aborted, not 20 us
    # but the doomed page still crossed the channel
    assert plan.uncorrectable_transfers >= 1


def test_rpssd_false_clean_pays_full_decode():
    policy = _policy("RPSSD", rp_script=[True], decode_script=[False])
    plan = compile_plan(policy, 0.01)
    assert plan.rp_predicted_retry is False
    assert plan.phases[1].decode_us == EccConfig().t_ecc_max


# --- RiF -----------------------------------------------------------------------


def test_rif_clean_read_adds_tpred_to_sense():
    policy = _policy("RiFSSD", rp_script=[True])
    plan = compile_plan(policy, 0.001)
    assert len(plan.phases) == 2
    assert plan.phases[0].duration == T.t_read + T.t_pred
    assert not plan.retried


def test_rif_predicted_failure_never_ships_bad_page():
    policy = _policy("RiFSSD", rp_script=[False])
    plan = compile_plan(policy, 0.01)
    assert plan.in_die_retry
    assert plan.retried
    assert len(plan.phases) == 2  # ONE sense phase + ONE transfer
    assert plan.phases[0].duration == T.t_read + T.t_pred + T.t_swift_extra
    assert plan.phases[1].tag == TAG_COR
    assert plan.uncorrectable_transfers == 0
    assert plan.senses == 2


def test_rif_false_clean_falls_back_reactively():
    policy = _policy("RiFSSD", rp_script=[True], decode_script=[False])
    plan = compile_plan(policy, 0.01)
    assert plan.rp_predicted_retry is False
    assert plan.uncorrectable_transfers == 1
    assert len(plan.phases) == 4
    assert not plan.in_die_retry


# --- plan arithmetic -------------------------------------------------------------


def test_plan_time_totals():
    plan = compile_plan(_policy("SWR", decode_script=[False]), 0.01)
    assert plane_time(plan) == pytest.approx(
        T.t_read + (T.t_read + T.t_swift_extra)
    )
    assert channel_time(plan) == pytest.approx(2 * T.t_dma)


def test_retry_round_bound_exists():
    assert MAX_RETRY_ROUNDS >= 4
