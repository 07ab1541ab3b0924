"""Whole-simulation invariants, checked on traced runs.

These catch the classic discrete-event bugs: double-booked resources,
leaked ECC buffer slots, lost bytes, and time accounting that doesn't add
up.
"""

from dataclasses import replace

import pytest

from repro.config import small_test_config
from repro.ssd.simulator import SSDSimulator, TimelineTracer
from repro.workloads import generate


@pytest.fixture(scope="module", params=["SWR", "RiFSSD"])
def traced_run(request):
    tracer = TimelineTracer()
    ssd = SSDSimulator(small_test_config(), policy=request.param,
                       pe_cycles=2000, seed=31, tracer=tracer)
    trace = generate("Sys0", n_requests=150, user_pages=3000, seed=31)
    result = ssd.run_trace(trace)
    return ssd, result, tracer, trace


def _occupancy(tracer):
    """Every occupancy span of the instrumented resources, by resource:
    planes, channels (ECCWAIT intervals included), decoders and the host
    link — writes and GC too, which the read-path view leaves out."""
    out = {}
    for ev in tracer.resource_spans:
        out.setdefault(ev.resource, []).append(ev)
    return out


def _assert_serial(resource, events):
    ordered = sorted(events, key=lambda e: (e.start_us, e.end_us))
    for a, b in zip(ordered, ordered[1:]):
        assert a.end_us <= b.start_us + 1e-9, (
            f"{resource}: {a.label} [{a.start_us},{a.end_us}] overlaps "
            f"{b.label} [{b.start_us},{b.end_us}]"
        )


def test_no_resource_double_booking(traced_run):
    """A serial resource must never run two jobs at once."""
    ssd, _result, tracer, _trace = traced_run
    for resource, events in tracer.by_resource().items():
        if resource.startswith("ecc"):
            continue  # decode intervals are recorded per page, queue-side
        _assert_serial(resource, events)
    occupancy = _occupancy(tracer)
    expected = {r.name for r in (*ssd.planes, *ssd.channels, ssd.host_link)}
    expected |= {ecc.decoder.name for ecc in ssd.eccs}
    assert set(occupancy) == expected
    for resource, events in occupancy.items():
        _assert_serial(resource, events)


def test_every_event_within_simulated_time(traced_run):
    _ssd, result, tracer, _trace = traced_run
    horizon = result.metrics.elapsed_us
    for events in (*tracer.by_resource().values(),
                   *_occupancy(tracer).values()):
        for ev in events:
            assert 0.0 <= ev.start_us <= ev.end_us <= horizon + 1e-9


def test_cut_run_reports_only_finished_spans():
    """A run cut at its time limit reports only the jobs that finished by
    the cut, though its host link (the bottleneck here) has pages booked
    past it; resuming the run reports the rest."""
    config = small_test_config()
    config = replace(config, bandwidth=replace(config.bandwidth,
                                               host_gb_per_s=0.2))
    tracer = TimelineTracer()
    ssd = SSDSimulator(config, policy="RiFSSD", pe_cycles=2000, seed=31,
                       tracer=tracer)
    trace = generate("Sys0", n_requests=150, user_pages=3000, seed=31)
    result = ssd.run_trace(trace, time_limit_us=2000.0)
    horizon = result.metrics.elapsed_us
    assert not result.completed and horizon == 2000.0
    assert ssd.host_link.free_at > horizon  # pages still crossing
    for events in _occupancy(tracer).values():
        for ev in events:
            assert 0.0 <= ev.start_us <= ev.end_us <= horizon
    ssd.run()
    m = ssd.metrics
    occupancy = _occupancy(tracer)
    host = occupancy[ssd.host_link.name]
    assert sum(ev.tag == "READ" for ev in host) == m.page_reads
    assert sum(ev.tag == "WRITE" for ev in host) == m.page_writes
    for resource, events in occupancy.items():
        _assert_serial(resource, events)
        for ev in events:
            assert ev.end_us <= m.elapsed_us


def test_host_link_carries_every_page(traced_run):
    """Every page read crosses the host link once, and every page write
    once."""
    ssd, result, tracer, _trace = traced_run
    m = result.metrics
    host = _occupancy(tracer)[ssd.host_link.name]
    assert m.degraded_reads == 0  # so every page read reached the host
    assert sum(ev.tag == "READ" for ev in host) == m.page_reads
    assert sum(ev.tag == "WRITE" for ev in host) == m.page_writes
    assert len(host) == m.page_reads + m.page_writes


def test_host_bytes_conserved(traced_run):
    """Completed host bytes must equal the trace's bytes exactly."""
    _ssd, result, _tracer, trace = traced_run
    m = result.metrics
    assert m.host_read_bytes == trace.read_bytes()
    assert m.host_write_bytes == trace.total_bytes() - trace.read_bytes()


def test_channel_time_matches_traced_transfers(traced_run):
    """The channels' tagged busy time must equal the sum of traced transfer
    intervals (no phantom accounting)."""
    ssd, _result, tracer, _trace = traced_run
    by_resource = tracer.by_resource()
    for i, channel in enumerate(ssd.channels):
        traced = sum(
            ev.end_us - ev.start_us for ev in by_resource.get(f"ch{i}", [])
        )
        booked = (channel.busy_time_by_tag.get("COR", 0.0)
                  + channel.busy_time_by_tag.get("UNCOR", 0.0))
        # WRITE/GC jobs are not traced per-phase; compare the read share
        assert traced == pytest.approx(booked, rel=1e-9)


def test_ecc_slots_drained(traced_run):
    """All decoder buffer slots must be free when the run ends."""
    ssd, _result, _tracer, _trace = traced_run
    for ecc in ssd.eccs:
        assert ecc.slots_in_use == 0
        assert not ecc.decoder.busy


def test_senses_account_for_retries(traced_run):
    ssd, result, _tracer, _trace = traced_run
    m = result.metrics
    # every page read senses at least once; retries add more
    assert m.total_senses >= m.page_reads
    if m.retried_reads:
        assert m.total_senses > m.page_reads


def test_usage_fractions_partition_unity(traced_run):
    _ssd, result, _tracer, _trace = traced_run
    fractions = result.channel_usage.fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)
    assert all(0.0 <= v <= 1.0 for v in fractions.values())
