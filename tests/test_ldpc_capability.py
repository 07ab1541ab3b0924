"""Capability measurement and logistic fit (Fig. 3 machinery)."""


import pytest

from repro.errors import ConfigError
from repro.ldpc.capability import (
    CapabilityCurve,
    CapabilityPoint,
    fit_capability_curve,
    measure_capability,
)


def test_failure_probability_monotone():
    curve = CapabilityCurve(midpoint=0.009, slope=20.0)
    ps = [curve.failure_probability(r) for r in (0.001, 0.005, 0.009, 0.02)]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    assert curve.failure_probability(0.009) == pytest.approx(0.5)
    assert curve.failure_probability(0.0) == 0.0


def test_capability_inverts_failure_probability():
    curve = CapabilityCurve(midpoint=0.009, slope=25.0)
    for target in (0.1, 0.5, 0.9):
        cap = curve.capability(target)
        assert curve.failure_probability(cap) == pytest.approx(target, rel=1e-6)


def test_paper_nominal_matches_quoted_capability():
    curve = CapabilityCurve.paper_nominal()
    assert curve.capability(0.1) == pytest.approx(0.0085, rel=1e-6)
    # cliff-like: failure negligible well below and certain well above
    assert curve.failure_probability(0.004) < 1e-4
    assert curve.failure_probability(0.02) > 0.999


def test_extreme_arguments_clamped():
    curve = CapabilityCurve(midpoint=0.009, slope=50.0)
    assert curve.failure_probability(1e-12) == 0.0
    assert curve.failure_probability(0.49) == 1.0


def test_measure_capability_produces_waterfall(code64):
    points = measure_capability(
        code64, [0.002, 0.008, 0.014], trials=25, seed=3
    )
    assert points[0].failure_probability < points[-1].failure_probability
    assert points[0].avg_iterations < points[-1].avg_iterations


def test_measure_capability_deterministic(code64):
    a = measure_capability(code64, [0.006], trials=10, seed=5)
    b = measure_capability(code64, [0.006], trials=10, seed=5)
    assert a[0].failure_probability == b[0].failure_probability


def test_fit_recovers_known_curve():
    truth = CapabilityCurve(midpoint=0.008, slope=12.0)
    points = [
        CapabilityPoint(
            rber=r,
            failure_probability=truth.failure_probability(r),
            avg_iterations=1.0,
            trials=10_000,
        )
        for r in (0.004, 0.006, 0.008, 0.010, 0.014)
    ]
    fitted = fit_capability_curve(points)
    assert fitted.midpoint == pytest.approx(truth.midpoint, rel=0.02)
    assert fitted.slope == pytest.approx(truth.slope, rel=0.05)


def test_fit_requires_enough_points():
    with pytest.raises(ConfigError):
        fit_capability_curve(
            [CapabilityPoint(0.01, 0.5, 1.0, 100)]
        )


def test_validation(code64):
    with pytest.raises(ConfigError):
        measure_capability(code64, [0.6], trials=1)
    with pytest.raises(ConfigError):
        measure_capability(code64, [0.01], trials=0)
    with pytest.raises(ConfigError):
        CapabilityCurve(0.009, 20.0).capability(0.0)
