"""Last-resort soft-decision recovery in the retry policies."""

import pytest

from repro.config import NandTimings
from repro.ssd.ecc_model import DecodeDraw, EccOutcomeModel, ScriptedEccOutcomeModel
from repro.ssd.retry_policies import (
    K_SENSE,
    MAX_RETRY_ROUNDS,
    ReadRetryPolicy,
    make_policy,
)

from tests.plans import compile_plan

T = NandTimings()


class _HopelessRetryModel(ScriptedEccOutcomeModel):
    """Every voltage-adjusted re-read fails — forces the soft fallback."""

    def retried_decode(self, rber):
        return DecodeDraw(success=False, t_ecc=self.ecc.t_ecc_max)


def test_soft_recovery_terminates_hopeless_swift_loop():
    model = _HopelessRetryModel(decode_script=[False])
    plan = compile_plan(make_policy("SWR", T, model), 0.02)
    # budget exhausted, then one soft round that always succeeds
    assert plan.phases[-1].tag == "COR"
    assert plan.phases[-1].decode_us == pytest.approx(2 * model.ecc.t_ecc_max)
    # the soft sense combines several reads
    soft_sense = plan.phases[-2]
    assert soft_sense.kind == K_SENSE
    assert soft_sense.duration == pytest.approx(
        T.t_read * ReadRetryPolicy.SOFT_RECOVERY_READS
    )
    # 1 initial + 2*MAX swift senses + K soft senses
    assert plan.senses == 1 + 2 * MAX_RETRY_ROUNDS + ReadRetryPolicy.SOFT_RECOVERY_READS


def test_soft_recovery_terminates_hopeless_ssdone():
    model = _HopelessRetryModel(decode_script=[False])
    plan = compile_plan(make_policy("SSDone", T, model), 0.02)
    assert plan.phases[-1].tag == "COR"
    assert plan.retried


def test_soft_recovery_terminates_hopeless_sentinel():
    model = _HopelessRetryModel(decode_script=[False])
    plan = compile_plan(make_policy("SENC", T, model, p_vref_miss=0.0), 0.02)
    assert plan.phases[-1].tag == "COR"


def test_soft_recovery_never_used_when_retries_work():
    """With realistic outcome draws the fallback is essentially unreachable
    (re-reads decode with overwhelming probability)."""
    model = EccOutcomeModel(seed=8)
    policy = make_policy("SWR", T, model)
    long_senses = ReadRetryPolicy.SOFT_RECOVERY_READS
    for _ in range(200):
        plan = compile_plan(policy, 0.02)
        soft_rounds = [
            p for p in plan.phases
            if p.kind == K_SENSE
            and p.duration == pytest.approx(T.t_read * long_senses)
        ]
        assert not soft_rounds


def test_catch_probability_matches_fig11():
    model = EccOutcomeModel(seed=4)
    catches = sum(model.rp_catches_failed_page(0.01) for _ in range(2000))
    assert catches / 2000 == pytest.approx(model.p_catch_uncorrectable, abs=0.02)


def test_scripted_catch_is_deterministic():
    model = ScriptedEccOutcomeModel()
    assert all(model.rp_catches_failed_page(0.01) for _ in range(5))
