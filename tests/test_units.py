"""Unit constants and conversions."""

import pytest

from repro import units


def test_size_constants_are_powers_of_two():
    assert units.KIB == 1024
    assert units.MIB == units.KIB ** 2
    assert units.GIB == units.KIB ** 3
    assert units.TIB == units.KIB ** 4


def test_time_constants():
    assert units.MS == 1000 * units.US
    assert units.SEC == 1000 * units.MS
    assert units.US_PER_DAY == 86400 * units.SEC


def test_gb_per_s_conversion_matches_paper_dma():
    # a 16-KiB page over a 1.2 GB/s channel takes ~13.1 us (Table I: 13 us)
    bw = units.gb_per_s_to_bytes_per_us(1.2)
    t = 16 * units.KIB / bw
    assert t == pytest.approx(13.65, abs=0.1)


def test_bytes_per_us_to_mb_per_s_roundtrip():
    assert units.bytes_per_us_to_mb_per_s(1.0) == pytest.approx(1.0)
    assert units.bytes_per_us_to_mb_per_s(
        units.gb_per_s_to_bytes_per_us(8.0)
    ) == pytest.approx(8000.0)


