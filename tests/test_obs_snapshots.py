"""Time-sliced counter snapshots: window binning and sim integration."""

import pytest

from repro.campaign import RunSpec
from repro.campaign.spec import build_simulator, build_trace
from repro.config import small_test_config
from repro.errors import SimulationError
from repro.faults import FaultPlan, FaultSpec
from repro.obs.slo import (
    BurnRateRule,
    SloSpec,
    evaluate_slo,
    windows_from_snapshots,
)
from repro.obs.snapshots import WINDOW_COUNTERS, SnapshotRecorder
from repro.ssd.metrics import SimMetrics
from repro.ssd.simulator import SSDSimulator
from repro.units import KIB
from repro.workloads import generate
from repro.workloads.trace import IORequest


def _series(snapshots, name):
    return [snap.counters[name] for snap in snapshots]


def test_recorder_validation():
    with pytest.raises(SimulationError):
        SnapshotRecorder(0.0)
    with pytest.raises(SimulationError):
        SnapshotRecorder(-10.0)
    with pytest.raises(SimulationError):
        SnapshotRecorder(float("nan"))


def test_counters_bin_by_time():
    """Each window stores every counter's change over it; windows the
    run skipped (no event) read zero."""
    rec = SnapshotRecorder(10.0)
    metrics = SimMetrics()
    metrics.page_reads = 2
    rec.close_window(metrics, next_us=12.0)    # window 0 closes
    metrics.host_read_bytes = 4096
    rec.close_window(metrics, next_us=35.0)    # window 1; 2 is skipped
    metrics.page_reads = 3
    rec.finalize(35.0, metrics)                # window 3
    snaps = rec.snapshots()
    assert _series(snaps, "page_reads") == [2.0, 0.0, 0.0, 1.0]
    assert _series(snaps, "host_read_bytes") == [0.0, 4096.0, 0.0, 0.0]
    names = {name for name, _field in WINDOW_COUNTERS}
    assert all(set(s.counters) == names for s in snaps)


def test_snapshots_require_finalize():
    rec = SnapshotRecorder(10.0)
    with pytest.raises(SimulationError):
        rec.snapshots()


def test_simulator_snapshots_reconcile_with_totals():
    """The windows cover the run, and binned counters reproduce the
    metric totals."""
    ssd = SSDSimulator(small_test_config(), policy="RiFSSD", pe_cycles=2000,
                       seed=31, snapshot_interval_us=1000.0)
    trace = generate("Sys0", n_requests=150, user_pages=3000, seed=31)
    result = ssd.run_trace(trace)
    snaps = ssd.snapshots.snapshots()
    assert snaps[-1].end_us >= result.metrics.elapsed_us

    m = result.metrics
    assert sum(s.counters.get("host_read_bytes", 0) for s in snaps) == \
        m.host_read_bytes
    assert sum(s.counters.get("page_reads", 0) for s in snaps) == m.page_reads
    assert sum(s.counters.get("senses", 0) for s in snaps) == m.total_senses


#: The worn SENC cell of ``slo-report --burn Ali124:SENC:2000`` (20 ms
#: windows), and a faulted run whose retries and degraded reads land in
#: the counters no read plan touches.
_SENC_BURN = RunSpec(workload="Ali124", policy="SENC", pe_cycles=2000.0,
                     seed=7)
_FAULTED = RunSpec(
    workload="Sys0", policy="SSDone", pe_cycles=2000.0, seed=31,
    n_requests=150,
    fault_plan=FaultPlan(faults=(
        FaultSpec(kind="transient_sense", period=7, magnitude=6.0),
        FaultSpec(kind="channel_corrupt", period=11, count=4, magnitude=1),
    ), on_degraded="absorb"))


def _windowed(spec: RunSpec, interval_us: float):
    ssd = build_simulator(spec, snapshot_interval_us=interval_us)
    result = ssd.run_trace(build_trace(spec), **spec.run_kwargs())
    return ssd, result


@pytest.mark.parametrize("spec, interval_us, active", [
    (_SENC_BURN, 20_000.0, ("uncorrectable_transfers", "retried_reads")),
    (_FAULTED, 700.0, ("fault_retries", "degraded_reads",
                       "uncorrectable_transfers")),
], ids=["senc-burn", "faulted"])
def test_windows_count_every_slo_event(spec, interval_us, active):
    """Every SLO event and both host-byte counters have a per-window count
    whose sum is the run's SimMetrics total, and the windowed run is the
    plain run, event for event."""
    ssd, result = _windowed(spec, interval_us)
    assert all(getattr(result.metrics, attr) for attr in active)
    snaps = ssd.snapshots.snapshots()
    for name, attr in WINDOW_COUNTERS:
        assert sum(s.counters[name] for s in snaps) == \
            getattr(result.metrics, attr), name
    plain = build_simulator(spec)
    plain_result = plain.run_trace(build_trace(spec), **spec.run_kwargs())
    assert result.to_dict() == plain_result.to_dict()
    assert ssd.sim.processed_events == plain.sim.processed_events


def test_burn_rule_fires_on_uncorrectable_transfers():
    """A burn-rate rule on an event the read plans count alongside page
    reads (here doomed transfers) sees its per-window counts: the worn
    SENC cell that blows its 1 % budget also trips the rule."""
    ssd, result = _windowed(_SENC_BURN, 20_000.0)
    slo = SloSpec(name="wasted-burn", error_budget=0.01,
                  bad_event="uncorrectable_transfers",
                  event_total="page_reads",
                  burn_rules=(BurnRateRule(window=1, max_burn_rate=2.0),))
    windows = windows_from_snapshots(ssd.snapshots.snapshots(),
                                     slo.bad_event, slo.event_total)
    m = result.metrics
    report = evaluate_slo(slo, m.read_latency_hist,
                          m.uncorrectable_transfers, m.page_reads,
                          windows=windows)
    budget, burn = report.verdicts
    assert not budget.ok and budget.observed > 1.0
    assert burn.kind == "burn" and not burn.ok
    assert burn.observed > 100.0


def test_event_at_a_window_edge_counts_in_the_later_window():
    """A read that completes exactly on an edge lands its host bytes in
    the window that starts there; its plan was counted in the first."""
    def one_read(interval_us=None):
        ssd = SSDSimulator(small_test_config(), policy="SSDzero", seed=3,
                           snapshot_interval_us=interval_us)
        ssd.submit_request(IORequest(0.0, "R", 0, 16 * KIB))
        ssd.run()
        return ssd

    done_us = one_read().sim.now
    ssd = one_read(interval_us=done_us)
    assert ssd.sim.now == done_us
    snaps = ssd.snapshots.snapshots()
    assert _series(snaps, "page_reads") == [1.0, 0.0]
    assert _series(snaps, "host_read_bytes") == [0.0, 16 * KIB]
