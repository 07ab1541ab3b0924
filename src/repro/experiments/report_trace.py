"""``report-trace``: summarise an exported simulator trace from the CLI.

Reads a Chrome ``trace_event`` JSON export, rolls spans up per hardware
track (channel, decoder, plane, host link, requests), and prints busy
time, utilisation, and the per-tag breakdown plus the longest individual
spans — a quick look at *where the time went* without opening
``chrome://tracing``.

Usage::

    python -m repro.experiments report-trace out/trace_RiFSSD.json
    python -m repro.experiments report-trace out/*.json --top 5
"""

from __future__ import annotations

from typing import List

from ..obs.export import load_trace_spans, longest_spans, summarize_spans
from .registry import ExperimentResult


def trace_report(path, top: int = 10) -> List[ExperimentResult]:
    """Build the per-track rollup and hot-spot tables for one trace file."""
    spans = load_trace_spans(path)
    rollup = summarize_spans(spans)
    window = max((row["window_us"] for row in rollup), default=0.0)
    tables = [
        ExperimentResult(
            experiment_id="report-trace",
            title=f"per-track busy time for {path}",
            rows=[
                {
                    "track": row["track"],
                    "spans": row["spans"],
                    "busy_us": row["busy_us"],
                    "util": row["util"],
                    "p99_us": row["p99_us"],
                    "p999_us": row["p999_us"],
                    "by_tag_us": row["by_tag_us"],
                }
                for row in rollup
            ],
            headline={"spans": len(spans), "window_us": window},
        )
    ]
    if top > 0:
        tables.append(ExperimentResult(
            experiment_id="report-trace",
            title=f"{top} longest spans",
            rows=longest_spans(spans, top=top),
        ))
    return tables


def format_trace_report(path, top: int = 10) -> str:
    """The rendered plain-text report for one trace file."""
    return "\n\n".join(t.format_table() for t in trace_report(path, top=top))


def main(paths: List[str], top: int = 10) -> int:
    """CLI entry point (dispatched from :mod:`repro.experiments.runner`)."""
    for i, path in enumerate(paths):
        if i:
            print()
        print(format_trace_report(path, top=top))
    return 0
