"""Calibrated RBER model: anchors, monotonicity, variation."""

import pytest

from repro.config import EccConfig
from repro.errors import ConfigError
from repro.nand.rber import PageState, RberModel


@pytest.fixture()
def model():
    return RberModel()


def test_anchor_days_interpolation(model):
    # exact at anchors
    assert model.anchor_cross_days(0) == pytest.approx(17.0)
    assert model.anchor_cross_days(200) == pytest.approx(14.0)
    assert model.anchor_cross_days(500) == pytest.approx(10.0)
    assert model.anchor_cross_days(1000) == pytest.approx(8.0)
    # between anchors: monotone decreasing
    assert 10.0 < model.anchor_cross_days(350) < 14.0


def test_anchor_extrapolation_beyond_table(model):
    assert model.anchor_cross_days(5000) < model.anchor_cross_days(3000)
    assert model.anchor_cross_days(5000) > 0


def test_median_crossing_later_than_anchor(model):
    for pe in (0, 500, 2000):
        assert model.t_cross_days(pe) > model.anchor_cross_days(pe)


def test_median_page_crosses_capability_exactly_at_t_cross(model):
    cap = EccConfig().correction_capability
    for pe in (0.0, 1000.0):
        t = model.t_cross_days(pe)
        rber = model.median_rber(PageState(pe_cycles=pe, retention_days=t))
        assert rber == pytest.approx(cap, rel=1e-6)


def test_rber_monotone_in_retention(model):
    values = [
        model.median_rber(PageState(pe_cycles=500, retention_days=d))
        for d in (0, 1, 5, 10, 20, 30)
    ]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_rber_monotone_in_pe(model):
    values = [
        model.median_rber(PageState(pe_cycles=pe, retention_days=10))
        for pe in (0, 200, 500, 1000, 2000)
    ]
    assert values == sorted(values)


def test_rber_monotone_in_reads(model):
    low = model.median_rber(PageState(500, 5, read_count=0))
    high = model.median_rber(PageState(500, 5, read_count=1_000_000))
    assert high > low


def test_rber_capped_at_physical_ceiling(model):
    r = model.median_rber(PageState(pe_cycles=3000, retention_days=100000))
    assert r == 0.5


def test_page_rber_deterministic_per_block(model):
    state = PageState(1000, 10)
    a = model.page_rber(state, (0, 1, 2, 3), page=4)
    b = model.page_rber(state, (0, 1, 2, 3), page=4)
    assert a == b
    c = model.page_rber(state, (0, 1, 2, 4), page=4)
    assert a != c


def test_strong_block_has_lower_rber(model):
    state = PageState(1000, 10)
    weak = model.rber_with_strength(state, 0.7)
    strong = model.rber_with_strength(state, 1.4)
    assert weak > strong


def test_crossing_days_matches_page_rber(model):
    """A page read exactly at its crossing day sits at the capability: the
    strength factor scales the median crossing time."""
    cap = EccConfig().correction_capability
    for strength in (0.6, 1.0, 1.7):
        t = model.t_cross_days(800) * strength
        rber = model.rber_with_strength(PageState(800, t), strength)
        assert rber == pytest.approx(cap, rel=1e-6)


def test_page_state_validation():
    with pytest.raises(ConfigError):
        PageState(pe_cycles=-1, retention_days=0)
    with pytest.raises(ConfigError):
        PageState(pe_cycles=0, retention_days=-2)


def test_negative_pe_rejected(model):
    with pytest.raises(ConfigError):
        model.t_cross_days(-5)


def test_prog_rber_grows_with_pe(model):
    assert model.rber_prog(2000) > model.rber_prog(0)
    # and stays below the capability so fresh pages always decode
    assert model.rber_prog(3000) < 0.0085
