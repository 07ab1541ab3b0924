"""Process-variation model: determinism and statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ReliabilityConfig
from repro.nand.variation import (
    VariationModel,
    _fold,
    _hash_state,
    _unit,
    _unit_to_standard_normal,
)


def _reference_hash_to_unit(seed: int, *keys: int) -> float:
    """The unfolded hash every prefix resume must reproduce: seed and
    keys through SplitMix64 in one pass."""
    mask = 0xFFFFFFFFFFFFFFFF

    def mix(x):
        x = (x + 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        return x ^ (x >> 31)

    h = mix(seed & mask)
    for k in keys:
        h = mix(h ^ mix(k & mask))
    return (h + 0.5) / 2.0**64


_ANY_INT = st.integers(min_value=-2**70, max_value=2**70)


@given(seed=_ANY_INT, keys=st.lists(_ANY_INT, min_size=1, max_size=6),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_prefix_fold_resumes_to_the_full_hash(seed, keys, data):
    """Folding a stored prefix of any length, then the rest of the keys,
    equals hashing everything at once (negative keys and keys >= 2**64
    included: both reduce mod 2**64)."""
    split = data.draw(st.integers(min_value=0, max_value=len(keys)))
    expected = _reference_hash_to_unit(seed, *keys)
    assert _unit(_hash_state(seed, *keys)) == expected
    prefix = _hash_state(seed, *keys[:split])
    assert _unit(_fold(prefix, *keys[split:])) == expected


@given(seed=st.integers(min_value=0, max_value=2**40),
       block_key=st.tuples(*[st.integers(min_value=0, max_value=4096)] * 4),
       page=st.integers(min_value=0, max_value=1152))
@settings(max_examples=100, deadline=None)
def test_factors_match_the_unfolded_hash(seed, block_key, page):
    config = ReliabilityConfig()
    model = VariationModel(config, seed=seed)

    def factor(sigma, *keys):
        z = _unit_to_standard_normal(_reference_hash_to_unit(seed, *keys))
        return math.exp(sigma * z)

    assert model.block_factor(block_key) == factor(
        config.block_variation_sigma, 0xB10C, *block_key)
    expected_page = factor(config.page_variation_sigma, 0x9A6E, *block_key,
                           page)
    assert model.page_factor(block_key, page) == expected_page
    assert model.page_factor_at(model.page_prefix(block_key),
                                page) == expected_page


@pytest.fixture()
def model():
    return VariationModel(ReliabilityConfig(), seed=3)


def test_block_factor_deterministic(model):
    key = (1, 2, 3, 4)
    assert model.block_factor(key) == model.block_factor(key)


def test_block_factor_varies_across_blocks(model):
    factors = {model.block_factor((0, 0, 0, b)) for b in range(50)}
    assert len(factors) == 50


def test_block_factor_depends_on_seed():
    a = VariationModel(ReliabilityConfig(), seed=1).block_factor((0, 0, 0, 0))
    b = VariationModel(ReliabilityConfig(), seed=2).block_factor((0, 0, 0, 0))
    assert a != b


def test_factors_are_lognormal_with_median_one(model):
    factors = [model.block_factor((0, 0, 0, b)) for b in range(4000)]
    logs = np.log(factors)
    sigma = ReliabilityConfig().block_variation_sigma
    assert abs(np.median(logs)) < 0.02
    assert np.std(logs) == pytest.approx(sigma, rel=0.1)


def test_page_factor_smaller_spread_than_block(model):
    blocks = np.log([model.block_factor((0, 0, 0, b)) for b in range(2000)])
    pages = np.log([model.page_factor((0, 0, 0, 0), p) for p in range(2000)])
    assert np.std(pages) < np.std(blocks)


def test_hash_to_unit_in_open_interval():
    values = [_unit(_hash_state(5, i)) for i in range(1000)]
    assert all(0.0 < v < 1.0 for v in values)
    # should look uniform
    assert abs(np.mean(values) - 0.5) < 0.03


def test_inverse_normal_accuracy():
    # spot checks against known quantiles
    assert _unit_to_standard_normal(0.5) == pytest.approx(0.0, abs=1e-8)
    assert _unit_to_standard_normal(0.975) == pytest.approx(1.959964, abs=1e-5)
    assert _unit_to_standard_normal(0.01) == pytest.approx(-2.326348, abs=1e-5)


def test_inverse_normal_symmetry():
    for u in (0.001, 0.05, 0.3):
        assert _unit_to_standard_normal(u) == pytest.approx(
            -_unit_to_standard_normal(1 - u), abs=1e-7
        )
