"""Observability: structured tracing, streaming metrics, telemetry.

The simulator's diagnostic substrate.  Everything in this package is
**zero-RNG and passive** — enabling any of it never changes a simulation
result, which the determinism tests pin down bit-for-bit.  The engine
feeds its per-phase observers two inputs only: the resource probes and
:class:`~repro.ssd.metrics.SimMetrics`.

* :mod:`.trace` — :class:`SimTracer`: one resource-occupancy stream
  from the probes (the read-path phase view of the Fig. 7/8 timelines is
  part of it), per-request lifecycle spans and instant events.  A traced
  run records all of them.
* :mod:`.export` — Chrome ``trace_event`` JSON (one track per
  channel/die, loadable in ``chrome://tracing``/Perfetto), a schema
  validator for CI, and the ``report-trace`` reader and summary helpers.
* :mod:`.histogram` — :class:`LatencyHistogram`, the O(1)-memory
  log-bucketed replacement for unbounded per-request latency lists.
* :mod:`.snapshots` — :class:`SnapshotRecorder`: the per-window change
  of every SLO counter and the host bytes (read off the metrics at each
  window edge), the burn-rate rules' input.
* :mod:`.telemetry` — JSONL sinks and live status lines the campaign
  progress reporters stream through.
* :mod:`.registry` — :class:`FleetAggregator`, the fleet rollup: per
  policy, the cell counts, the sums of the SimMetrics counters and the
  channel time, and the merged latency histograms, with the one table
  that names their exported metric families.
* :mod:`.slo` — declarative :class:`SloSpec` objectives (tail latency,
  error budgets, windowed burn-rate rules) with pass/fail verdicts.
* :mod:`.dashboard` — Prometheus text exposition (+ validator), registry
  JSONL, the rewriting terminal fleet panel, and static HTML reports.

``python -m repro.obs`` (see :mod:`.__main__`) exposes ``scrape``,
``slo-report``, and ``dashboard`` subcommands over these pieces.

Import discipline: nothing here imports :mod:`repro.ssd` or
:mod:`repro.campaign` at module scope (those layers import *us*), so the
package stays cycle-free; the fold/evaluate entry points duck-type
against result/fleet attribute contracts instead.
"""

from .histogram import LatencyHistogram
from .trace import InstantEvent, SimTracer, SpanEvent
from .export import (
    chrome_trace,
    load_trace_spans,
    longest_spans,
    summarize_spans,
    validate_chrome_trace,
    write_chrome_trace,
)
from .snapshots import SnapshotRecorder, UsageSnapshot
from .telemetry import JsonlSink, LiveLineWriter, format_duration, live_line
from .registry import FleetAggregator
from .slo import (
    BurnRateRule,
    LatencyObjective,
    SloReport,
    SloSpec,
    SloVerdict,
    default_slos,
    evaluate_fleet,
    evaluate_slo,
    load_slos,
    windows_from_snapshots,
)
from .dashboard import (
    MultiLineWriter,
    html_report,
    prometheus_text,
    registry_jsonl,
    render_dashboard,
    validate_prometheus_text,
)

__all__ = [
    "LatencyHistogram",
    "SimTracer",
    "SpanEvent",
    "InstantEvent",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "load_trace_spans",
    "summarize_spans",
    "longest_spans",
    "SnapshotRecorder",
    "UsageSnapshot",
    "JsonlSink",
    "LiveLineWriter",
    "live_line",
    "format_duration",
    "FleetAggregator",
    "SloSpec",
    "SloReport",
    "SloVerdict",
    "LatencyObjective",
    "BurnRateRule",
    "evaluate_slo",
    "evaluate_fleet",
    "default_slos",
    "load_slos",
    "windows_from_snapshots",
    "prometheus_text",
    "validate_prometheus_text",
    "registry_jsonl",
    "render_dashboard",
    "MultiLineWriter",
    "html_report",
]
