"""Property-based tests on the NAND physics substrates."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nand.ispp import IsppConfig, IsppProgrammer
from repro.nand.thermal import ThermalModel
from repro.nand.vth import PageType, TlcVthModel

_VTH = TlcVthModel()
_THERMAL = ThermalModel()


@given(
    st.sampled_from(list(PageType)),
    st.floats(min_value=0.0, max_value=3000.0),
    st.floats(min_value=0.0, max_value=3.0),
)
@settings(max_examples=60, deadline=None)
def test_page_rber_always_a_probability(ptype, pe, months):
    rber = _VTH.page_rber(ptype, pe, months)
    assert 0.0 <= rber <= 1.0


@given(
    st.sampled_from(list(PageType)),
    st.floats(min_value=0.0, max_value=2000.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_page_rber_monotone_in_retention(ptype, pe, m1, m2):
    lo, hi = sorted((m1, m2))
    assert _VTH.page_rber(ptype, pe, hi) >= _VTH.page_rber(ptype, pe, lo) - 1e-12


@given(
    st.sampled_from(list(PageType)),
    st.floats(min_value=0.0, max_value=2000.0),
    st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_ones_fraction_is_a_probability(ptype, pe, months):
    ones = _VTH.ones_fraction(ptype, pe, months)
    assert 0.0 <= ones <= 1.0


@given(st.floats(min_value=-40.0, max_value=120.0),
       st.floats(min_value=-40.0, max_value=120.0))
@settings(max_examples=60, deadline=None)
def test_thermal_acceleration_monotone(t1, t2):
    lo, hi = sorted((t1, t2))
    assert _THERMAL.acceleration_factor(hi) >= _THERMAL.acceleration_factor(lo)


@given(st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_ispp_sigma_bounded_by_step(step):
    programmer = IsppProgrammer(IsppConfig(step_v=step))
    sigma = programmer.final_sigma()
    # uniform-overshoot floor and a noise-bounded ceiling
    assert step / (12 ** 0.5) <= sigma <= step / (12 ** 0.5) + 0.05


@given(st.floats(min_value=0.05, max_value=1.0),
       st.integers(min_value=1, max_value=7))
@settings(max_examples=25, deadline=None)
def test_ispp_pulses_positive_and_time_consistent(step, state):
    programmer = IsppProgrammer(IsppConfig(step_v=step))
    pulses = programmer.expected_pulses(state)
    assert pulses >= 1
    assert programmer.program_time_us() >= programmer.config.overhead_us


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_ispp_programmed_cells_reach_verify(seed):
    programmer = IsppProgrammer()
    rng = np.random.default_rng(seed)
    states = rng.integers(1, 8, 200)
    vth = programmer.program_cells(states, seed=seed)
    verify = np.array([programmer.verify_level(s) for s in range(1, 8)])
    assert np.all(vth >= verify[states - 1])
