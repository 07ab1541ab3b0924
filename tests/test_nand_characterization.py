"""Synthetic characterization campaign (the Fig. 4 / Fig. 12 data source)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nand.characterization import CharacterizationCampaign
from repro.units import KIB


@pytest.fixture(scope="module")
def campaign():
    return CharacterizationCampaign(seed=11)


def test_crossing_quantile_matches_anchor(campaign):
    """The configured quantile of the crossing distribution must land on
    the Fig.-4 anchor at every anchored wear level."""
    q = campaign.reliability.anchor_quantile
    for pe, anchor in ((0.0, 17.0), (500.0, 10.0), (1000.0, 8.0)):
        measured = campaign.earliest_crossing_day(pe, quantile=q, n_pages=20000)
        assert measured == pytest.approx(anchor, rel=0.05)


def test_crossings_shrink_with_wear(campaign):
    medians = [
        float(np.median(campaign.crossing_days_samples(pe, 5000)))
        for pe in (0, 500, 1000, 2000)
    ]
    assert medians == sorted(medians, reverse=True)


def test_distribution_is_normalized_over_wide_bins(campaign):
    dist = campaign.retention_crossing_distribution(
        1000.0, day_bins=range(1, 200), n_pages=4000
    )
    assert sum(dist.values()) == pytest.approx(1.0, abs=0.01)


def test_chunk_similarity_decreases_with_chunk_size(campaign):
    """Fig. 12: larger chunks -> tighter RBER agreement."""
    s4 = campaign.chunk_similarity(1000, 14, 4 * KIB, n_pages=300)
    s1 = campaign.chunk_similarity(1000, 14, 1 * KIB, n_pages=300)
    assert s4 < s1


def test_chunk_similarity_tightens_with_more_reads(campaign):
    few = campaign.chunk_similarity(0, 7, 4 * KIB, n_pages=200,
                                    reads_per_measurement=4)
    many = campaign.chunk_similarity(0, 7, 4 * KIB, n_pages=200,
                                     reads_per_measurement=256)
    assert many < few


def test_chunk_similarity_rejects_bad_chunk(campaign):
    with pytest.raises(ConfigError):
        campaign.chunk_similarity(0, 0, 3000)  # does not divide 16 KiB


def test_campaign_validation():
    with pytest.raises(ConfigError):
        CharacterizationCampaign(n_chips=0)
