"""Arrhenius retention-acceleration model."""

import pytest

from repro.errors import ConfigError
from repro.nand.rber import PageState, RberModel
from repro.nand.thermal import ThermalConfig, ThermalModel


@pytest.fixture(scope="module")
def model():
    return ThermalModel()


def test_reference_temperature_is_neutral(model):
    assert model.acceleration_factor(40.0) == pytest.approx(1.0)


def test_hotter_ages_faster_colder_slower(model):
    assert model.acceleration_factor(70.0) > 5.0
    assert model.acceleration_factor(25.0) < 0.3
    factors = [model.acceleration_factor(t) for t in (0, 25, 40, 55, 70, 85)]
    assert factors == sorted(factors)


def test_rule_of_thumb_doubling(model):
    """With Ea ~ 1.1 eV, ~+6 C roughly doubles the ageing rate around 40 C
    (the classic reliability rule of thumb)."""
    ratio = model.acceleration_factor(46.0) / model.acceleration_factor(40.0)
    assert 1.8 < ratio < 2.6


def test_derate_crossing_days(model):
    # a 17-day fresh crossing at reference shrinks badly in a hot chassis
    hot = model.derate_crossing_days(17.0, 70.0)
    assert hot < 3.0
    cold = model.derate_crossing_days(17.0, 25.0)
    assert cold > 17.0


def test_integration_with_rber_model(model):
    """Reference-temperature days (``days * AF``) drive the calibrated RBER
    model directly: storage at 70 C pushes a page past the capability far
    sooner."""
    rber_model = RberModel()
    days_physical = 5.0
    cool = rber_model.median_rber(
        PageState(1000, days_physical * model.acceleration_factor(40.0))
    )
    hot = rber_model.median_rber(
        PageState(1000, days_physical * model.acceleration_factor(70.0))
    )
    assert hot > cool * 2
    assert hot > rber_model.ecc.correction_capability


def test_validation(model):
    for bad in (-300.0, -273.15, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="temperature"):
            model.acceleration_factor(bad)
        with pytest.raises(ConfigError, match="reference_temp_c"):
            ThermalConfig(reference_temp_c=bad)
    with pytest.raises(ConfigError):
        model.derate_crossing_days(0.0, 40.0)
    with pytest.raises(ConfigError):
        ThermalConfig(activation_energy_ev=-1.0)
