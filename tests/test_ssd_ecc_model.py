"""Probabilistic decode-outcome model."""

import pytest

from repro.errors import ConfigError
from repro.ssd.ecc_model import EccOutcomeModel, ScriptedEccOutcomeModel


@pytest.fixture()
def model():
    return EccOutcomeModel(seed=1)


def test_low_rber_always_succeeds(model):
    draws = [model.first_decode_outcome(0.001) for _ in range(100)]
    assert all(ok for ok, _t in draws)
    assert all(t_ecc < 3.0 for _ok, t_ecc in draws)


def test_high_rber_always_fails_with_max_latency(model):
    draws = [model.first_decode_outcome(0.03) for _ in range(100)]
    assert not any(ok for ok, _t in draws)
    assert all(t_ecc == model.ecc.t_ecc_max for _ok, t_ecc in draws)


def test_capability_region_is_mixed(model):
    midpoint = model.failure_curve.midpoint
    successes = sum(model.first_decode_outcome(midpoint)[0]
                    for _ in range(200))
    assert 60 < successes < 140
    # at the quoted capability (10% failure target) most decodes succeed
    cap_successes = sum(model.first_decode_outcome(0.0085)[0]
                        for _ in range(200))
    assert 150 < cap_successes < 195


def test_retried_decode_nearly_always_succeeds(model):
    draws = [model.retried_decode_outcome(0.02) for _ in range(200)]
    assert sum(ok for ok, _t in draws) >= 199
    assert all(t_ecc <= 2.0 for ok, t_ecc in draws if ok)


def test_retry_rber_well_below_capability(model):
    cap = model.ecc.correction_capability
    assert model.retry_rber(10 * cap) < cap / 2
    assert model.retry_rber(0.001) == pytest.approx(0.001 * model.retry_rber_factor)


def test_healthy_decode_never_fails(model):
    for rber in (0.0, 0.005, 0.05):
        assert model.healthy_decode(rber) < model.ecc.t_ecc_max / 2


def test_rp_verdicts_track_rber(model):
    low = sum(model.rp_predicts_retry(0.002) for _ in range(200))
    high = sum(model.rp_predicts_retry(0.02) for _ in range(200))
    assert low < 10
    assert high > 190


def test_bernoulli_bounds(model):
    assert not model.bernoulli(0.0)
    assert model.bernoulli(1.0)
    with pytest.raises(ConfigError):
        model.bernoulli(1.5)


def test_determinism_with_seed():
    a = EccOutcomeModel(seed=5)
    b = EccOutcomeModel(seed=5)
    for _ in range(20):
        assert a.first_decode_outcome(0.008) == b.first_decode_outcome(0.008)


def test_validation():
    with pytest.raises(ConfigError):
        EccOutcomeModel(retry_rber_factor=0.0)


# --- scripted model -----------------------------------------------------------


def test_scripted_decode_sequence():
    model = ScriptedEccOutcomeModel(decode_script=[False, True])
    first = model.first_decode_outcome(0.0)
    second = model.first_decode_outcome(0.0)
    third = model.first_decode_outcome(0.0)  # script exhausted -> success
    assert first == (False, model.ecc.t_ecc_max)
    assert second == third == (True, model.t_ecc_ok)


def test_scripted_rp_sequence():
    model = ScriptedEccOutcomeModel(rp_script=[False, True])
    assert model.rp_predicts_retry(0.0) is True    # page would fail
    assert model.rp_predicts_retry(0.0) is False   # page would succeed
    assert model.rp_predicts_retry(0.0) is False   # exhausted -> clean


def test_scripted_retry_and_healthy():
    model = ScriptedEccOutcomeModel()
    assert model.retried_decode_outcome(0.5) == (True, model.ecc.t_ecc_min)
    assert model.healthy_decode(0.5) == model.t_ecc_ok
    assert not model.bernoulli(0.99)
    assert model.bernoulli(1.0)
