"""Progress reporting for campaign execution.

Executors call a :class:`ProgressHook` once per completed cell (whether
computed or served from the cache) plus start/finish notifications.
:class:`CampaignStats` aggregates those events into the numbers a caller
usually wants (cells executed vs cached, wall clock); :class:`PrintProgress`
additionally narrates each cell to a stream — what the CLI runner shows
with ``--progress``.

The streaming reporters forward the same events as telemetry
(:mod:`repro.obs.telemetry`): :class:`LiveProgress` keeps one rewriting
status line with an ETA; :class:`JsonlProgress` appends one structured
record per cell (label, spec hash, wall time, cache hit/miss,
bandwidth/retry/fault counters, and the cell's share of the fleet
rollup) that a dashboard can tail while the grid runs;
:class:`MultiProgress` fans events out to several hooks at once.
"""

from __future__ import annotations

import sys
import time
from typing import List, Optional, TextIO

from ..obs.dashboard import MultiLineWriter, render_dashboard
from ..obs.registry import FleetAggregator, rollup_share
from ..obs.slo import default_slos, evaluate_fleet
from ..obs.telemetry import JsonlSink, LiveLineWriter, live_line


class ProgressHook:
    """No-op base class; override any subset of the notifications."""

    def on_start(self, total: int) -> None:
        """Campaign begins; ``total`` cells will be reported."""

    def on_result(self, spec, result, elapsed_s: float, cached: bool) -> None:
        """One cell finished (``cached`` = served from the result cache)."""

    def on_finish(self, elapsed_s: float) -> None:
        """All cells reported; ``elapsed_s`` is the campaign wall clock."""

    def on_interrupt(self, reason: str) -> None:
        """The campaign is shutting down early (SIGINT/SIGTERM): flush and
        close whatever this hook holds open.  ``on_finish`` will *not* be
        called afterwards."""


class CampaignStats(ProgressHook):
    """Aggregating hook: counts and wall-clock, no output."""

    def __init__(self):
        self.total = 0
        self.executed = 0
        self.cached = 0
        self.wall_clock_s: Optional[float] = None
        self._started_at: Optional[float] = None

    @property
    def completed(self) -> int:
        return self.executed + self.cached

    def on_start(self, total: int) -> None:
        self.total = total
        self._started_at = time.perf_counter()

    def on_result(self, spec, result, elapsed_s: float, cached: bool) -> None:
        if cached:
            self.cached += 1
        else:
            self.executed += 1

    def on_finish(self, elapsed_s: float) -> None:
        self.wall_clock_s = elapsed_s


class PrintProgress(CampaignStats):
    """Narrate per-cell completion and the final tally to a stream."""

    def __init__(self, stream: Optional[TextIO] = None):
        super().__init__()
        self.stream = stream or sys.stderr

    def on_result(self, spec, result, elapsed_s: float, cached: bool) -> None:
        super().on_result(spec, result, elapsed_s, cached)
        origin = "cache " if cached else f"{elapsed_s:5.2f}s"
        print(
            f"[campaign {self.completed:>{len(str(self.total))}d}/"
            f"{self.total}] {spec.label():30s} {origin}",
            file=self.stream,
        )

    def on_finish(self, elapsed_s: float) -> None:
        super().on_finish(elapsed_s)
        print(
            f"[campaign] {self.executed} simulated, {self.cached} from "
            f"cache in {elapsed_s:.1f}s",
            file=self.stream,
        )


def cell_report(spec, outcome, elapsed_s: float, cached: bool) -> dict:
    """One flat JSON-compatible record describing a finished cell.

    Works for both outcome shapes (duck-typed): a
    :class:`~repro.ssd.simulator.SimulationResult` contributes bandwidth,
    retry/fault counters and its share of the fleet rollup (``rollup``,
    see :func:`~repro.obs.registry.rollup_share`), a
    :class:`~repro.campaign.executor.CellFailure` its kind and message.
    """
    record = {
        "event": "cell",
        "label": spec.label(),
        "spec_hash": spec.content_hash(),
        "elapsed_s": elapsed_s,
        "cached": cached,
    }
    metrics = getattr(outcome, "metrics", None)
    if metrics is not None:
        summary = metrics.latency_summary()
        record.update({
            "ok": True,
            "policy": outcome.policy,
            "completed": outcome.completed,
            "io_bandwidth_mb_s": metrics.io_bandwidth_mb_s(),
            "page_reads": metrics.page_reads,
            "retried_reads": metrics.retried_reads,
            "retry_rate": metrics.retry_rate(),
            "uncorrectable_transfers": metrics.uncorrectable_transfers,
            "faults_injected": metrics.faults_injected,
            "degraded_reads": metrics.degraded_reads,
            "elapsed_us": metrics.elapsed_us,
            # tail-latency digest (None-valued when the cell saw no reads)
            "p50_read_us": summary["p50_us"],
            "p99_read_us": summary["p99_us"],
            "p999_read_us": summary["p999_us"],
            "rollup": rollup_share(outcome),
        })
    else:  # CellFailure
        record.update({
            "ok": False,
            "kind": outcome.kind,
            "message": outcome.message,
            "attempts": outcome.attempts,
        })
    return record


class LiveProgress(CampaignStats):
    """Single rewriting terminal line: done/total, cache hits, failures,
    wall clock, and an ETA extrapolated from executed cells."""

    def __init__(self, stream: Optional[TextIO] = None):
        super().__init__()
        self.failed = 0
        self._writer = LiveLineWriter(stream)
        self._last_label = ""
        self._last_s: Optional[float] = None

    def on_result(self, spec, result, elapsed_s: float, cached: bool) -> None:
        super().on_result(spec, result, elapsed_s, cached)
        if getattr(result, "metrics", None) is None:
            self.failed += 1
        self._last_label = spec.label()
        self._last_s = None if cached else elapsed_s
        self._writer.update(live_line(
            self.completed, self.total, self.cached, self.failed,
            time.perf_counter() - self._started_at,
            self._last_label, self._last_s,
        ))

    def on_finish(self, elapsed_s: float) -> None:
        super().on_finish(elapsed_s)
        self._writer.finish(live_line(
            self.completed, self.total, self.cached, self.failed, elapsed_s,
        ))

    def on_interrupt(self, reason: str) -> None:
        # leave the terminal on a clean final line, not mid-rewrite
        self._writer.finish()


class JsonlProgress(CampaignStats):
    """Stream one JSON record per event to a file (or open stream).

    Emits a ``start`` record, one ``cell`` record per completed cell (see
    :func:`cell_report`), and a closing ``finish`` record with the tallies
    — a machine-readable campaign log that can be tailed live.
    """

    def __init__(self, target):
        super().__init__()
        self.sink = JsonlSink(target)

    def on_start(self, total: int) -> None:
        super().on_start(total)
        self.sink.emit({"event": "start", "total": total})

    def on_result(self, spec, result, elapsed_s: float, cached: bool) -> None:
        super().on_result(spec, result, elapsed_s, cached)
        self.sink.emit(cell_report(spec, result, elapsed_s, cached))

    def on_finish(self, elapsed_s: float) -> None:
        super().on_finish(elapsed_s)
        self.sink.emit({
            "event": "finish",
            "executed": self.executed,
            "cached": self.cached,
            "wall_clock_s": elapsed_s,
        })
        self.sink.close()

    def on_interrupt(self, reason: str) -> None:
        """Flush-on-shutdown: record the interrupt so the log's last line
        says *why* there is no ``finish`` record, then close the sink."""
        self.sink.emit({
            "event": "interrupt",
            "reason": reason,
            "executed": self.executed,
            "cached": self.cached,
        })
        self.sink.close()


class DashboardProgress(CampaignStats):
    """Live multi-line fleet dashboard: per-policy tail latency, retry
    rates, degraded cells, and SLO verdicts, repainted as cells land.

    Owns a :class:`~repro.obs.registry.FleetAggregator` (exposed as
    ``.fleet`` so callers can export the final rollup) and judges it
    against ``slos`` (default: :func:`repro.obs.slo.default_slos`) on
    every repaint.  Purely an observer — the campaign's results are
    untouched.
    """

    def __init__(self, stream: Optional[TextIO] = None, slos=None):
        super().__init__()
        self.fleet = FleetAggregator()
        self.slos = list(slos) if slos is not None else default_slos()
        self.failed = 0
        self._writer = MultiLineWriter(stream)

    def _render(self, elapsed_s: float) -> List[str]:
        reports = evaluate_fleet(self.fleet, self.slos) if self.slos else []
        return render_dashboard(
            self.fleet, done=self.completed, total=self.total,
            failed=self.failed, elapsed_s=elapsed_s, slo_reports=reports)

    def on_result(self, spec, result, elapsed_s: float, cached: bool) -> None:
        super().on_result(spec, result, elapsed_s, cached)
        if getattr(result, "metrics", None) is None:
            self.failed += 1
        self.fleet.observe(spec, result, cached=cached)
        self._writer.update(self._render(
            time.perf_counter() - self._started_at))

    def on_finish(self, elapsed_s: float) -> None:
        super().on_finish(elapsed_s)
        self._writer.finish(self._render(elapsed_s))

    def on_interrupt(self, reason: str) -> None:
        self._writer.finish()


class MultiProgress(ProgressHook):
    """Fan progress events out to several hooks (e.g. live line + JSONL)."""

    def __init__(self, hooks: List[ProgressHook]):
        self.hooks = list(hooks)

    def on_start(self, total: int) -> None:
        for hook in self.hooks:
            hook.on_start(total)

    def on_result(self, spec, result, elapsed_s: float, cached: bool) -> None:
        for hook in self.hooks:
            hook.on_result(spec, result, elapsed_s, cached)

    def on_finish(self, elapsed_s: float) -> None:
        for hook in self.hooks:
            hook.on_finish(elapsed_s)

    def on_interrupt(self, reason: str) -> None:
        for hook in self.hooks:
            hook.on_interrupt(reason)
