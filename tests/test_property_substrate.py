"""Property-based tests on the non-LDPC substrates."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import NandGeometry, ReliabilityConfig
from repro.nand.geometry import AddressMapper
from repro.nand.randomizer import Randomizer
from repro.nand.rber import PageState, RberModel
from repro.obs.histogram import percentile

_GEOMETRY = NandGeometry(
    channels=3, dies_per_channel=2, planes_per_die=2,
    blocks_per_plane=5, pages_per_block=7,
)
_MAPPER = AddressMapper(_GEOMETRY)
_RBER = RberModel()


@given(st.integers(min_value=0, max_value=_GEOMETRY.total_pages - 1))
@settings(max_examples=60, deadline=None)
def test_ppn_address_roundtrip(ppn):
    assert _MAPPER.ppn(_MAPPER.address(ppn)) == ppn


@given(
    st.integers(min_value=1, max_value=2**31),
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=1, max_value=512),
)
@settings(max_examples=30, deadline=None)
def test_randomizer_roundtrip_any_seed_key_length(base_seed, key, n_bits):
    r = Randomizer(base_seed=base_seed)
    bits = np.random.default_rng(key).integers(0, 2, n_bits, dtype=np.uint8)
    assert np.array_equal(r.descramble(r.scramble(bits, key), key), bits)


@given(
    st.floats(min_value=0.0, max_value=4000.0),
    st.floats(min_value=0.0, max_value=60.0),
    st.floats(min_value=0.0, max_value=60.0),
)
@settings(max_examples=60, deadline=None)
def test_rber_monotone_in_retention_everywhere(pe, d1, d2):
    lo, hi = sorted((d1, d2))
    r_lo = _RBER.median_rber(PageState(pe, lo))
    r_hi = _RBER.median_rber(PageState(pe, hi))
    assert r_hi >= r_lo
    assert 0.0 <= r_lo <= 0.5 and 0.0 <= r_hi <= 0.5


@given(
    st.floats(min_value=0.0, max_value=3000.0),
    st.floats(min_value=0.0, max_value=3000.0),
    st.floats(min_value=0.0, max_value=60.0),
)
@settings(max_examples=60, deadline=None)
def test_rber_monotone_in_wear_everywhere(pe1, pe2, days):
    lo, hi = sorted((pe1, pe2))
    assert _RBER.median_rber(PageState(hi, days)) >= _RBER.median_rber(
        PageState(lo, days)
    )


@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50),
       st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_percentile_within_sample_range(values, q):
    values = sorted(values)
    p = percentile(values, q)
    assert values[0] <= p <= values[-1]
    assert p in values


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_variation_factor_positive_any_block(block):
    from repro.nand.variation import VariationModel
    model = VariationModel(ReliabilityConfig(), seed=1)
    factor = model.block_factor((0, 0, 0, block))
    assert 0.0 < factor < 100.0
