"""Command-line runner for the experiment registry."""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from typing import List, Optional

from ..errors import ReproError
from .registry import EXPERIMENTS, get_experiment


def _progress_hook(args):
    """Compose the requested campaign progress reporters (or None)."""
    hooks = []
    if args.progress:
        from ..campaign import PrintProgress

        hooks.append(PrintProgress())
    if args.live:
        from ..campaign import LiveProgress

        hooks.append(LiveProgress())
    if args.telemetry:
        from ..campaign import JsonlProgress

        hooks.append(JsonlProgress(args.telemetry))
    if args.dashboard:
        from ..campaign import DashboardProgress

        hooks.append(DashboardProgress())
    if not hooks:
        return None
    if len(hooks) == 1:
        return hooks[0]
    from ..campaign import MultiProgress

    return MultiProgress(hooks)


def _experiment_kwargs(experiment, exp_id: str, args) -> dict:
    """Build the kwargs this experiment's ``run`` accepts.

    Every experiment takes ``scale`` and ``seed``; the SSD-level campaigns
    additionally accept ``jobs`` / ``cache_dir`` / ``progress`` /
    ``ledger_dir``, and the timeline experiments ``trace_out`` — pass the
    execution options only where they mean something.  Each experiment
    gets its own subdirectory under ``--ledger`` (a ledger is bound to one
    grid; different experiments are different grids).
    """
    kwargs = {"scale": args.scale, "seed": args.seed}
    accepted = inspect.signature(experiment.run).parameters
    if "jobs" in accepted:
        kwargs["jobs"] = args.jobs
    if "cache_dir" in accepted:
        kwargs["cache_dir"] = args.cache
    if "ledger_dir" in accepted and args.ledger:
        kwargs["ledger_dir"] = f"{args.ledger}/{exp_id}"
    if "progress" in accepted:
        hook = _progress_hook(args)
        if hook is not None:
            kwargs["progress"] = hook
    if "trace_out" in accepted and args.trace_out:
        kwargs["trace_out"] = args.trace_out
    return kwargs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (e.g. fig17 table2); "
                             "'all' runs everything; "
                             "'report-trace FILE...' summarises exported "
                             "Chrome trace JSON files instead")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--scale", default="small", choices=("small", "full"),
                        help="experiment scale (default: small)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for the SSD-level campaign "
                             "grids (results are identical to --jobs 1)")
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="content-addressed result cache: skip "
                             "(workload, P/E, policy) cells already "
                             "computed by an earlier run")
    parser.add_argument("--wipe-cache", action="store_true",
                        help="empty the --cache directory and exit")
    parser.add_argument("--ledger", metavar="DIR", default=None,
                        help="durable campaign runtime: journal every cell "
                             "to a write-ahead ledger under DIR/<id> so a "
                             "killed or interrupted run resumes exactly "
                             "where it stopped (Ctrl-C/SIGTERM shut down "
                             "gracefully and print the resume hint)")
    parser.add_argument("--progress", action="store_true",
                        help="report per-cell campaign completion on stderr")
    parser.add_argument("--live", action="store_true",
                        help="single rewriting campaign status line with ETA "
                             "on stderr")
    parser.add_argument("--telemetry", metavar="FILE", default=None,
                        help="stream one JSON record per campaign cell "
                             "(label, wall time, cache hit, counters) to "
                             "FILE; tail it while the grid runs")
    parser.add_argument("--dashboard", action="store_true",
                        help="repaint a live multi-line fleet panel "
                             "(per-policy tail latency, retry rates, SLO "
                             "verdicts) on stderr while the grid runs")
    parser.add_argument("--trace-out", metavar="DIR", default=None,
                        help="export Chrome trace_event JSON from "
                             "trace-capable experiments (e.g. fig7) to DIR; "
                             "inspect via chrome://tracing or report-trace")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="report-trace: longest spans to list "
                             "(default: 10)")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also export each result as DIR/<id>.csv")
    parser.add_argument("--report", metavar="FILE", default=None,
                        help="write a consolidated markdown report to FILE")
    args = parser.parse_args(argv)

    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    try:
        return _run(parser, args)
    except ReproError as exc:  # bad input: an unknown id, an unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(parser: argparse.ArgumentParser, args) -> int:
    if args.experiments and args.experiments[0] == "report-trace":
        paths = args.experiments[1:]
        if not paths:
            parser.error("report-trace needs at least one Chrome trace "
                         "JSON file")
        from .report_trace import main as report_trace_main

        return report_trace_main(paths, top=args.top)

    if args.wipe_cache:
        if not args.cache:
            parser.error("--wipe-cache requires --cache DIR")
        from ..campaign import ResultCache

        removed = ResultCache(args.cache).wipe()
        print(f"-- wiped {removed} cached results from {args.cache}")
        return 0

    if args.list or not args.experiments:
        for exp_id in sorted(EXPERIMENTS):
            print(f"{exp_id:10s} {EXPERIMENTS[exp_id].title}")
        return 0

    ids = sorted(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    # resolve every id before running any, so a typo fails fast
    experiments = [get_experiment(exp_id) for exp_id in ids]
    collected = []
    for exp_id, experiment in zip(ids, experiments):
        start = time.time()
        try:
            result = experiment.run(
                **_experiment_kwargs(experiment, exp_id, args))
        except KeyboardInterrupt as exc:
            from ..errors import CampaignInterrupted

            print(f"\n-- {exp_id} interrupted", file=sys.stderr)
            if isinstance(exc, CampaignInterrupted):
                print(f"-- {len(exc.results)} cell(s) already finished",
                      file=sys.stderr)
                if exc.resume_hint:
                    print(f"-- {exc.resume_hint}", file=sys.stderr)
            elif args.ledger:
                print(f"-- re-run with --ledger {args.ledger} to resume",
                      file=sys.stderr)
            return 130
        collected.append(result)
        print(result.format_table())
        print(f"-- {exp_id} finished in {time.time() - start:.1f}s\n")
        if args.csv:
            from .export import result_to_csv

            path = result_to_csv(result, f"{args.csv}/{exp_id}.csv")
            print(f"-- wrote {path}\n")
    if args.report and collected:
        from pathlib import Path

        from .report import render_markdown

        Path(args.report).write_text(render_markdown(collected))
        print(f"-- report written to {args.report}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
