"""Trace representation."""

import pytest

from repro.errors import TraceError
from repro.units import KIB
from repro.workloads.trace import IORequest, Trace


def test_request_validation():
    with pytest.raises(TraceError):
        IORequest(0.0, "X", 0, 100)
    with pytest.raises(TraceError):
        IORequest(0.0, "R", -1, 100)
    with pytest.raises(TraceError):
        IORequest(0.0, "R", 0, 0)
    with pytest.raises(TraceError):
        IORequest(-1.0, "R", 0, 100)


def test_request_validation_names_offending_field():
    """A malformed request must be rejected at construction with the bad
    field named — the error should point at the data, not the symptom."""
    with pytest.raises(TraceError, match="op"):
        IORequest(0.0, "read", 0, 100)
    with pytest.raises(TraceError, match="offset_bytes"):
        IORequest(0.0, "R", -4096, 100)
    with pytest.raises(TraceError, match="offset_bytes"):
        IORequest(0.0, "R", 1.5, 100)  # non-integer offset
    with pytest.raises(TraceError, match="size_bytes"):
        IORequest(0.0, "R", 0, -100)
    with pytest.raises(TraceError, match="size_bytes"):
        IORequest(0.0, "R", 0, 100.0)  # non-integer size
    with pytest.raises(TraceError, match="timestamp_us"):
        IORequest(-0.5, "R", 0, 100)


def test_lpn_rasterisation():
    page = 16 * KIB
    # exactly one page
    assert list(IORequest(0, "R", 0, page).lpns(page)) == [0]
    # unaligned spill into the next page
    assert list(IORequest(0, "R", page - 1, 2).lpns(page)) == [0, 1]
    # multi-page
    assert list(IORequest(0, "W", 2 * page, 3 * page).lpns(page)) == [2, 3, 4]


def test_trace_requires_sorted_timestamps():
    with pytest.raises(TraceError):
        Trace([IORequest(5.0, "R", 0, 100), IORequest(1.0, "R", 0, 100)])


def test_trace_aggregates():
    t = Trace([
        IORequest(0.0, "R", 0, 1000),
        IORequest(1.0, "W", 0, 500),
        IORequest(2.0, "R", 16 * KIB * 9, 100),
    ], name="x")
    assert t.total_bytes() == 1600
    assert t.read_bytes() == 1100
    assert len(t) == 3
    assert t[1].op == "W"


