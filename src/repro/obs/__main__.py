"""Fleet metrics CLI: ``python -m repro.obs <command>``.

Three commands over the fleet rollup / SLO / dashboard stack:

``scrape``
    run a (workload x policy x P/E) grid — or replay it from a cache /
    ledger — folding every cell into a fleet rollup, then export:
    ``--prom`` (Prometheus text exposition), ``--json`` (the exact
    fleet state :func:`FleetAggregator.to_dict`), ``--jsonl`` (one line
    per metric sample), and
    ``--telemetry`` (the per-cell JSONL campaign log).  ``--dashboard``
    repaints the live terminal panel while the grid runs.

``slo-report``
    judge a fleet rollup (``--fleet`` JSON from ``scrape``, or a grid run
    on the spot) against SLO specs (``--slo`` JSON file, default
    :func:`repro.obs.slo.default_slos`), writing per-policy verdicts as
    JSON/HTML.  ``--burn workload:policy:pe`` additionally runs that one
    cell with the snapshot recorder enabled and evaluates the windowed
    burn-rate rules over its time slices.  ``--strict`` exits 1 when any
    verdict fails.

``dashboard``
    rebuild the fleet panel from a finished (or in-flight) campaign
    telemetry JSONL stream — no simulation, just the log.

Heavier imports (:mod:`repro.campaign`) stay inside the command bodies so
the obs package's import discipline holds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import ConfigError, ReproError
from .dashboard import (
    html_report,
    prometheus_text,
    registry_jsonl,
    render_dashboard,
    validate_prometheus_text,
)
from .registry import FleetAggregator, read_rollup_file
from .slo import (
    default_slos,
    evaluate_fleet,
    evaluate_slo,
    load_slos,
    windows_from_snapshots,
)


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workloads", default="Ali124",
                        help="comma-separated workload names")
    parser.add_argument("--policies", default="SENC,RPSSD,RiFSSD",
                        help="comma-separated policy names")
    parser.add_argument("--pe", default="1000,2000",
                        help="comma-separated P/E cycle points")
    parser.add_argument("--scale", default="small",
                        choices=("small", "full"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial)")
    parser.add_argument("--cache", default=None,
                        help="result cache directory (reused across runs)")
    parser.add_argument("--ledger", default=None,
                        help="durable campaign ledger directory")


def _grid_fleet(args, progress_hooks=None) -> FleetAggregator:
    """Run (or replay) the grid described by the CLI options, returning
    the fleet rollup."""
    from ..campaign import grid_specs, run_specs

    specs = grid_specs(
        workloads=[w.strip() for w in args.workloads.split(",") if w.strip()],
        policies=[p.strip() for p in args.policies.split(",") if p.strip()],
        pe_points=[float(p) for p in args.pe.split(",") if p.strip()],
        scale=args.scale,
        seed=args.seed,
    )
    fleet = FleetAggregator()
    run_specs(
        specs,
        jobs=args.jobs,
        cache=args.cache,
        ledger_dir=args.ledger,
        progress=progress_hooks,
        on_failure="record",
        fleet=fleet,
    )
    return fleet


def _load_fleet(path: str) -> FleetAggregator:
    return FleetAggregator.from_dict(read_rollup_file(path))


def _slo_specs(args):
    if args.slo is None:
        return default_slos()
    return load_slos(json.loads(Path(args.slo).read_text()))


# --- scrape ------------------------------------------------------------------


def _cmd_scrape(args) -> int:
    from ..campaign import DashboardProgress, JsonlProgress, MultiProgress

    hooks = []
    dash = None
    if args.dashboard:
        dash = DashboardProgress()
        hooks.append(dash)
    if args.telemetry:
        hooks.append(JsonlProgress(args.telemetry))
    progress = MultiProgress(hooks) if hooks else None
    fleet = _grid_fleet(args, progress)
    if args.json:
        Path(args.json).write_text(
            json.dumps(fleet.to_dict(), sort_keys=True) + "\n")
    if args.prom:
        text = prometheus_text(fleet)
        validate_prometheus_text(text)  # never ship malformed exposition
        Path(args.prom).write_text(text)
    if args.jsonl:
        Path(args.jsonl).write_text(registry_jsonl(fleet))
    if not (args.json or args.prom or args.jsonl or args.dashboard):
        sys.stdout.write(prometheus_text(fleet))
    print(f"[obs] {fleet.cells} cells scraped "
          f"({fleet.cached} cached, {fleet.failed} failed), "
          f"policies: {', '.join(fleet.policies()) or 'none'}",
          file=sys.stderr)
    return 0


# --- slo-report --------------------------------------------------------------


def _burn_spec(args):
    """The ``--burn workload:policy:pe`` cell as a spec; a malformed cell
    or an unknown workload is a :class:`ConfigError`."""
    from ..campaign import RunSpec

    try:
        workload, policy, pe = args.burn.split(":")
        pe_cycles = float(pe)
    except ValueError:  # a wrong part count or a non-numeric pe
        raise ConfigError("--burn expects workload:policy:pe with a numeric "
                          f"pe, got {args.burn!r}") from None
    return RunSpec(workload=workload, policy=policy, pe_cycles=pe_cycles,
                   seed=args.seed, scale=args.scale)


def _burn_reports(args, slos, spec):
    """Run one cell with the snapshot recorder and judge its burn rules."""
    from ..campaign import build_simulator, build_trace

    ssd = build_simulator(spec, snapshot_interval_us=args.burn_window_us)
    ssd.run_trace(build_trace(spec), **spec.run_kwargs())
    snapshots = ssd.snapshots.snapshots()
    reports = []
    for slo in slos:
        if not slo.burn_rules:
            continue
        windows = windows_from_snapshots(snapshots, slo.bad_event,
                                         slo.event_total)
        bad = sum(b for b, _t in windows)
        total = sum(t for _b, t in windows)
        reports.append(evaluate_slo(
            slo, ssd.metrics.read_latency_hist, bad, total,
            windows=windows, subject=f"{spec.label()} [burn]"))
    return reports


def _cmd_slo_report(args) -> int:
    slos = _slo_specs(args)
    # checked before the grid runs, so a bad cell fails fast
    burn_spec = _burn_spec(args) if args.burn else None
    if args.fleet:
        fleet = _load_fleet(args.fleet)
    else:
        fleet = _grid_fleet(args)
    reports = evaluate_fleet(fleet, slos)
    if burn_spec is not None:
        reports.extend(_burn_reports(args, slos, burn_spec))
    payload = {
        "cells": fleet.cells,
        "cached": fleet.cached,
        "failed": fleet.failed,
        "slos": [slo.to_dict() for slo in slos],
        "reports": [report.to_dict() for report in reports],
        "passed": all(report.passed for report in reports),
    }
    if args.out:
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    if args.html:
        Path(args.html).write_text(
            html_report(fleet, reports, title="SLO report"))
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        detail = "; ".join(
            f"{v.kind}:{v.rule} {'ok' if v.ok else 'VIOLATED'}"
            for v in report.verdicts)
        print(f"[slo] {status} {report.subject} vs {report.slo}: {detail}",
              file=sys.stderr)
    if args.strict and not payload["passed"]:
        return 1
    return 0


# --- dashboard ---------------------------------------------------------------


def _cmd_dashboard(args) -> int:
    fleet = FleetAggregator()
    total = None
    if args.fleet:
        fleet = _load_fleet(args.fleet)
    else:
        with open(args.telemetry) as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                if record.get("event") == "start":
                    total = record.get("total")
                elif record.get("event") == "cell":
                    fleet.observe_record(record)
    done = fleet.cells
    reports = evaluate_fleet(fleet, _slo_specs(args))
    for line in render_dashboard(fleet, done=done,
                                 total=total if total is not None else done,
                                 failed=fleet.failed, slo_reports=reports):
        print(line)
    return 0


# --- entry -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="fleet metrics: scrape grids, judge SLOs, render panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scrape = sub.add_parser(
        "scrape", help="run/replay a grid and export fleet metrics")
    _add_grid_options(scrape)
    scrape.add_argument("--prom", default=None,
                        help="write Prometheus text exposition here")
    scrape.add_argument("--json", default=None,
                        help="write the fleet state (JSON) here")
    scrape.add_argument("--jsonl", default=None,
                        help="write one JSON line per metric sample here")
    scrape.add_argument("--telemetry", default=None,
                        help="stream the per-cell campaign log (JSONL) here")
    scrape.add_argument("--dashboard", action="store_true",
                        help="repaint the live fleet panel while running")
    scrape.set_defaults(fn=_cmd_scrape)

    slo = sub.add_parser(
        "slo-report", help="judge fleet metrics against SLO specs")
    _add_grid_options(slo)
    slo.add_argument("--fleet", default=None,
                     help="fleet state JSON from `scrape --json` "
                          "(skips re-running the grid)")
    slo.add_argument("--slo", default=None,
                     help="SLO spec JSON file (default: built-in set)")
    slo.add_argument("--out", default=None, help="write the report JSON here")
    slo.add_argument("--html", default=None,
                     help="write a static HTML report here")
    slo.add_argument("--burn", default=None, metavar="W:P:PE",
                     help="also run this cell with time-sliced snapshots "
                          "and judge windowed burn-rate rules")
    slo.add_argument("--burn-window-us", type=float, default=20_000.0,
                     help="snapshot slice width for --burn (default 20ms)")
    slo.add_argument("--strict", action="store_true",
                     help="exit 1 when any verdict fails")
    slo.set_defaults(fn=_cmd_slo_report)

    dash = sub.add_parser(
        "dashboard", help="render the fleet panel from a telemetry log")
    dash.add_argument("--telemetry", default=None,
                      help="campaign JSONL log (from scrape --telemetry or "
                           "JsonlProgress)")
    dash.add_argument("--fleet", default=None,
                      help="fleet state JSON (alternative input)")
    dash.add_argument("--slo", default=None,
                      help="SLO spec JSON file (default: built-in set)")
    dash.set_defaults(fn=_cmd_dashboard)

    args = parser.parse_args(argv)
    if args.command == "dashboard" and not (args.telemetry or args.fleet):
        parser.error("dashboard needs --telemetry or --fleet")
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
