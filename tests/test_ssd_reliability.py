"""SSD-side reliability glue."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.spec import ssd_scale
from repro.errors import ConfigError
from repro.nand.geometry import AddressMapper
from repro.nand.rber import PageState
from repro.perf.cache import caches_disabled
from repro.ssd.reliability import PageReliabilitySampler
from repro.ssd.simulator import SSDSimulator
from repro.units import US_PER_DAY


@pytest.fixture()
def sampler():
    return PageReliabilitySampler(pe_cycles=1000, seed=4)


def test_cold_age_deterministic_and_bounded(sampler):
    refresh = sampler.reliability.refresh_days
    ages = [sampler.cold_age_days(lpn) for lpn in range(500)]
    assert all(0 <= a < refresh for a in ages)
    assert sampler.cold_age_days(7) == sampler.cold_age_days(7)
    # roughly uniform: mean near refresh/2
    assert sum(ages) / len(ages) == pytest.approx(refresh / 2, rel=0.15)


def test_warm_age_from_timestamps(sampler):
    assert sampler.warm_age_days(0.0, US_PER_DAY) == pytest.approx(1.0)
    assert sampler.warm_age_days(5.0, 5.0) == 0.0
    with pytest.raises(ConfigError):
        sampler.warm_age_days(10.0, 5.0)


def test_rber_wiring_monotone(sampler):
    key = (0, 0, 0, 1)
    young = sampler.rber(key, 0, retention_days=0.1)
    old = sampler.rber(key, 0, retention_days=25.0)
    assert old > young


def test_rber_read_disturb(sampler):
    key = (0, 0, 0, 1)
    quiet = sampler.rber(key, 0, 5.0, read_count=0)
    hammered = sampler.rber(key, 0, 5.0, read_count=2_000_000)
    assert hammered > quiet


def test_wear_raises_rber():
    fresh = PageReliabilitySampler(pe_cycles=0, seed=4)
    worn = PageReliabilitySampler(pe_cycles=2000, seed=4)
    key = (0, 0, 0, 2)
    assert worn.rber(key, 0, 10.0) > fresh.rber(key, 0, 10.0)


def test_negative_pe_rejected():
    with pytest.raises(ConfigError):
        PageReliabilitySampler(pe_cycles=-1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_wear_and_age_rejected(bad):
    with pytest.raises(ConfigError, match="pe_cycles"):
        PageReliabilitySampler(pe_cycles=bad)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_bad_retention_age_is_a_config_error(bad):
    """A negative age would raise a negative ratio to the retention
    exponent (a complex number, then a TypeError), and NaN would return
    NaN: both are refused where they enter."""
    sampler = PageReliabilitySampler(1000.0, seed=3)
    with pytest.raises(ConfigError, match="retention_days"):
        sampler.rber((0, 1, 2, 3), 4, retention_days=bad)
    with pytest.raises(ConfigError, match="PageState.retention_days"):
        PageState(1000.0, bad)
    with pytest.raises(ConfigError, match="PageState.pe_cycles"):
        PageState(bad, 1.0)


# --- the read path against the model --------------------------------------------


@given(
    pe=st.floats(min_value=0.0, max_value=4000.0),
    age=st.floats(min_value=0.0, max_value=365.0),
    read_count=st.integers(min_value=0, max_value=10**6),
    temp=st.sampled_from([None, 25.0, 70.0]),
    block=st.integers(min_value=0, max_value=1000),
    page=st.integers(min_value=0, max_value=383),
)
@settings(max_examples=200, deadline=None)
def test_sampler_rber_is_the_model_page_rber(pe, age, read_count, temp,
                                             block, page):
    """The sampler's hoisted wear terms and memoized strength factor give
    the model's RBER bit for bit; the reference evaluates everything per
    call, with the memo tables off."""
    sampler = PageReliabilitySampler(pe_cycles=pe, seed=4,
                                     operating_temp_c=temp)
    key = (block % 4, block % 3, block % 2, block)
    got = sampler.rber(key, page, age, read_count)
    with caches_disabled():
        want = sampler.model.page_rber(
            PageState(pe, age * sampler.thermal_acceleration, read_count),
            key, page)
    assert got == want


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.sampled_from(["small", "full"]),
    temp=st.sampled_from([None, 70.0]),
    age=st.floats(min_value=0.0, max_value=365.0),
    read_count=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=100, deadline=None)
def test_route_carries_the_page_strength_factor(data, seed, scale, temp,
                                                age, read_count):
    """A page's route holds its strength factor: the unfolded block x page
    hash, which fed to the curve gives the sampler's RBER bit for bit,
    and which a rebuilt route takes again."""
    config = ssd_scale(scale).config
    ssd = SSDSimulator(config, policy="SSDzero", pe_cycles=2000.0,
                       seed=seed, operating_temp_c=temp)
    pipeline, sampler = ssd._pipeline, ssd.sampler
    ppn = data.draw(st.integers(0, config.geometry.total_pages - 1))
    route = pipeline._route(ppn)
    block_key, page, strength = route[0], route[1], route[6]
    address = AddressMapper(config.geometry).address(ppn)
    assert (block_key, page) == (address.block_key(), address.page)
    variation = sampler.model.variation
    assert strength == (variation.block_factor(block_key)
                        * variation.page_factor(block_key, page))
    # the expression start_reads evaluates
    rber = pipeline._rber_at(pipeline._wear, age * pipeline._acceleration,
                             strength, read_count)
    assert rber == sampler.rber(block_key, page, age, read_count)
    pipeline._routes.clear()
    assert pipeline._route(ppn) == route
