"""RP accuracy: Monte-Carlo evaluation and the analytic model."""

import pytest

from repro.core.accuracy import (
    RpAccuracyModel,
    RpAccuracyPoint,
    evaluate_rp_accuracy,
    mean_accuracy_above_capability,
)
from repro.errors import ConfigError
from repro.ldpc.analytic import SyndromeStatistics
from repro.ldpc.capability import CapabilityCurve


def test_evaluate_far_from_capability_is_accurate(code):
    points = evaluate_rp_accuracy(
        code, [0.001, 0.03], n_pages=30, capability_rber=0.0085, seed=1
    )
    assert points[0].accuracy >= 0.9   # clearly correctable
    assert points[-1].accuracy >= 0.9  # clearly hopeless
    assert points[0].predicted_retry_rate <= 0.1
    assert points[-1].predicted_retry_rate >= 0.9


def test_evaluate_rates_are_consistent(code):
    points = evaluate_rp_accuracy(
        code, [0.006], n_pages=40, capability_rber=0.0085, seed=2
    )
    p = points[0]
    assert p.accuracy + p.false_clean_rate + p.false_retry_rate == pytest.approx(1.0)
    assert 0 <= p.predicted_retry_rate <= 1
    assert 0 <= p.actual_failure_rate <= 1


def test_chunked_evaluation_runs(code):
    points = evaluate_rp_accuracy(
        code, [0.002], n_pages=10, chunks_per_page=2,
        capability_rber=0.0085, seed=3,
    )
    assert len(points) == 1


def test_mean_accuracy_above_capability():
    points = [
        RpAccuracyPoint(0.004, 0.99, 0, 0, 0, 0.01, 10),
        RpAccuracyPoint(0.010, 0.90, 1, 1, 0.1, 0, 10),
        RpAccuracyPoint(0.012, 0.96, 1, 1, 0.04, 0, 10),
    ]
    assert mean_accuracy_above_capability(points, 0.0085) == pytest.approx(0.93)
    with pytest.raises(ConfigError):
        mean_accuracy_above_capability(points, 0.5)


def test_evaluate_validation(code):
    with pytest.raises(ConfigError):
        evaluate_rp_accuracy(code, [0.01], n_pages=0)


def test_paper_nominal_model_shape():
    model = RpAccuracyModel.paper_nominal()
    # far below capability: almost never fires; far above: almost always
    assert model.p_predict_retry(0.002) < 0.01
    assert model.p_predict_retry(0.02) > 0.99
    # at the capability the comparator is a coin flip (paper: 50.3%)
    assert 0.3 < model.p_predict_retry(0.0085) < 0.7


def test_paper_nominal_accuracy_high_away_from_capability():
    model = RpAccuracyModel.paper_nominal()
    assert model.accuracy(0.003) > 0.98
    assert model.accuracy(0.015) > 0.98
    assert model.accuracy(0.0085) < 0.75


def test_for_code_constructor(code):
    model = RpAccuracyModel.for_code(code, capability_rber=0.0085)
    assert model.statistics.n_checks == code.t
    assert model.threshold == model.statistics.threshold_for_rber(0.0085)


def test_from_measurements_interpolates():
    stats = SyndromeStatistics(n_checks=1024, row_weight=36)
    curve = CapabilityCurve.paper_nominal()
    points = [
        RpAccuracyPoint(0.004, 0.99, 0.0, 0.0, 0, 0, 100),
        RpAccuracyPoint(0.012, 0.99, 1.0, 1.0, 0, 0, 100),
    ]
    model = RpAccuracyModel.from_measurements(points, stats, 100, curve)
    assert model.p_predict_retry(0.008) == pytest.approx(0.5, abs=0.01)
    assert model.p_predict_retry(0.001) == 0.0   # clamped to table edge
    assert model.p_predict_retry(0.05) == 1.0


def test_model_validation():
    model = RpAccuracyModel.paper_nominal()
    with pytest.raises(ConfigError):
        model.p_predict_retry(-0.1)
