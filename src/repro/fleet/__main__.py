"""Fleet service CLI: ``python -m repro.fleet <command>``.

``generate``
    expand a fleet spec into its drive population and write it as JSON
    (spec + content hash + every drive).  Pure function of the spec —
    two hosts generating the same spec get byte-identical files.

``run``
    simulate a fleet as one campaign.  ``--jobs N``
    fans drives over worker processes, ``--ledger DIR`` makes the run
    crash-resumable (re-invoke the identical command after a kill), and
    ``--kill-after N`` injects the chaos harness's mid-campaign SIGKILL
    for exercising that resume.  ``--out`` writes the full run payload;
    ``--rollup`` writes the bare fleet state consumable by
    ``python -m repro.obs slo-report --fleet`` and ``dashboard``.

``report``
    render a per-policy summary table from a ``run`` payload (or a bare
    rollup JSON) — no simulation, just the saved aggregate.

``diff``
    compare two run payloads / rollups for bit-identical fleet state
    (run-provenance counters masked — a resumed run replays drives, an
    uninterrupted one does not).  Exit 0 on identical, 1 on divergent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import CampaignInterrupted, ReproError
from ..faults import FaultPlan, FaultSpec
from ..obs.registry import FleetAggregator, read_json_file
from .population import FleetSpec, generate_population
from .service import comparable_rollup, run_fleet


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", default=None, metavar="FILE",
                        help="fleet spec JSON (a `generate` file or a bare "
                             "FleetSpec dict); other spec flags are ignored")
    parser.add_argument("--drives", type=int, default=8,
                        help="population size (default 8)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", default="small", choices=("small", "full"))
    parser.add_argument("--policies", default="SENC,RiFSSD",
                        help="comma-separated policies, assigned round-robin")
    parser.add_argument("--workloads", default=None,
                        help="weighted mix as name:weight[,name:weight...] "
                             "(default: built-in read-heavy mix)")
    parser.add_argument("--pe-range", default="0,3000", metavar="LO,HI",
                        help="uniform per-drive P/E cycle range")
    parser.add_argument("--retention-range", default="5,90", metavar="LO,HI",
                        help="uniform per-drive retention age range (days)")
    parser.add_argument("--temp-range", default=None, metavar="LO,HI",
                        help="uniform operating-temperature range (deg C)")
    parser.add_argument("--fault-rate", type=float, default=0.0,
                        help="fraction of drives given a fault plan")
    parser.add_argument("--n-requests", type=int, default=None,
                        help="per-drive request count override")
    parser.add_argument("--user-pages", type=int, default=None,
                        help="per-drive user-page count override")
    parser.add_argument("--queue-depth", type=int, default=None)


def _parse_range(text: str, name: str):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise ReproError(f"{name} expects LO,HI, got {text!r}")
    return (float(parts[0]), float(parts[1]))


def _parse_mix(text: str):
    mix = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, weight = item.partition(":")
        mix.append((name.strip(), float(weight) if weight else 1.0))
    return mix


def _fleet_from_args(args) -> FleetSpec:
    if args.spec:
        data = read_json_file(args.spec, "fleet spec")
        if "fleet" in data:  # a `generate` payload
            data = data["fleet"]
        return FleetSpec.from_dict(data)
    kwargs = {
        "n_drives": args.drives,
        "seed": args.seed,
        "scale": args.scale,
        "policies": tuple(
            p.strip() for p in args.policies.split(",") if p.strip()),
        "pe_cycles_range": _parse_range(args.pe_range, "--pe-range"),
        "retention_days_range": _parse_range(args.retention_range,
                                             "--retention-range"),
        "fault_rate": args.fault_rate,
        "n_requests": args.n_requests,
        "user_pages": args.user_pages,
        "queue_depth": args.queue_depth,
    }
    if args.workloads:
        kwargs["workload_mix"] = _parse_mix(args.workloads)
    if args.temp_range:
        kwargs["temp_c_range"] = _parse_range(args.temp_range, "--temp-range")
    return FleetSpec(**kwargs)


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_rollup(path: str) -> dict:
    """A fleet rollup from either a `run` payload or a bare rollup file."""
    data = read_json_file(path, "fleet rollup")
    return data["rollup"] if "rollup" in data else data


# --- generate ----------------------------------------------------------------


def _cmd_generate(args) -> int:
    fleet = _fleet_from_args(args)
    drives = generate_population(fleet)
    _write_json(args.out, {
        "fleet": fleet.to_dict(),
        "fleet_hash": fleet.content_hash(),
        "drives": [drive.to_dict() for drive in drives],
    })
    afflicted = sum(1 for d in drives if d.fault_plan is not None)
    print(f"[fleet] {fleet.label()}: {len(drives)} drives, "
          f"{afflicted} with fault plans, hash {fleet.content_hash()[:12]}",
          file=sys.stderr)
    return 0


# --- run ---------------------------------------------------------------------


def _campaign_faults(args):
    if args.kill_after is None:
        return None
    return FaultPlan(faults=(FaultSpec(
        kind="campaign_kill", start_read=args.kill_after, count=1,
        magnitude=0.0 if args.kill_window == "pre" else 1.0,
    ),))


def _cmd_run(args) -> int:
    from ..campaign.progress import PrintProgress

    fleet = _fleet_from_args(args)
    try:
        result = run_fleet(
            fleet,
            jobs=args.jobs,
            cache=args.cache,
            ledger_dir=args.ledger,
            lease_s=args.lease_s,
            campaign_faults=_campaign_faults(args),
            progress=PrintProgress() if args.progress else None,
        )
    except CampaignInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        print(f"hint: {exc.resume_hint}", file=sys.stderr)
        return 130
    if args.out:
        _write_json(args.out, result.to_payload())
    if args.rollup:
        _write_json(args.rollup, result.rollup())
    if not (args.out or args.rollup):
        _write_json(None, result.to_payload())
    print(f"[fleet] {fleet.label()}: {result.executed} simulated, "
          f"{result.replayed} replayed, {len(result.failures())} failed",
          file=sys.stderr)
    return 0


# --- report ------------------------------------------------------------------


def _cmd_report(args) -> int:
    aggregator = FleetAggregator.from_dict(_load_rollup(args.rollup))
    rows = aggregator.policy_summary()
    print(f"fleet rollup: {aggregator.cells} cells "
          f"({aggregator.cached} cached, {aggregator.failed} failed)")
    header = (f"{'policy':<10} {'cells':>6} {'reads':>9} {'retry%':>7} "
              f"{'degraded':>9} {'p50 us':>9} {'p99 us':>9} {'p99.9 us':>9}")
    print(header)
    print("-" * len(header))
    for row in rows:
        # a policy without read-latency samples (every cell failed) has
        # no percentiles: "-", as on the dashboard
        tail = " ".join("-".rjust(9) if row[key] is None
                        else f"{row[key]:>9.1f}"
                        for key in ("p50_us", "p99_us", "p999_us"))
        print(f"{row['policy']:<10} {row['cells']:>6} {row['reads']:>9} "
              f"{100.0 * row['retry_rate']:>6.2f}% "
              f"{row['degraded_cells']:>9} {tail}")
    return 0


# --- diff --------------------------------------------------------------------


def _cmd_diff(args) -> int:
    left = comparable_rollup(_load_rollup(args.left))
    right = comparable_rollup(_load_rollup(args.right))
    if left == right:
        print(f"[fleet] identical: {args.left} == {args.right} "
              "(provenance counters masked)", file=sys.stderr)
        return 0
    keys = sorted(set(left) | set(right))
    diverged = [k for k in keys if left.get(k) != right.get(k)]
    print(f"[fleet] DIVERGENT in {diverged}: {args.left} vs {args.right}",
          file=sys.stderr)
    return 1


# --- entry -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="fleet-scale simulation: generate, run, report, diff",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="expand a fleet spec into its drive population")
    _add_spec_options(gen)
    gen.add_argument("--out", default=None,
                     help="write the population JSON here (default stdout)")
    gen.set_defaults(fn=_cmd_generate)

    run = sub.add_parser(
        "run", help="simulate a fleet as one resumable campaign")
    _add_spec_options(run)
    run.add_argument("--jobs", type=int, default=1,
                     help="worker processes (1 = serial)")
    run.add_argument("--cache", default=None,
                     help="result cache directory (reused across runs)")
    run.add_argument("--ledger", default=None,
                     help="durable ledger directory (enables resume)")
    run.add_argument("--lease-s", type=float, default=900.0)
    run.add_argument("--kill-after", type=int, default=None, metavar="N",
                     help="SIGKILL this run after its Nth executed drive")
    run.add_argument("--kill-window", choices=("pre", "post"), default="pre",
                     help="kill before (pre) or after (post) the ledger's "
                          "done record for that drive")
    run.add_argument("--out", default=None,
                     help="write the full run payload JSON here")
    run.add_argument("--rollup", default=None,
                     help="write the bare fleet rollup JSON here (feeds "
                          "`python -m repro.obs slo-report --fleet`)")
    run.add_argument("--progress", action="store_true",
                     help="narrate per-drive completion to stderr")
    run.set_defaults(fn=_cmd_run)

    rep = sub.add_parser(
        "report", help="per-policy summary of a saved fleet rollup")
    rep.add_argument("rollup", help="`run` payload or bare rollup JSON")
    rep.set_defaults(fn=_cmd_report)

    diff = sub.add_parser(
        "diff", help="compare two fleet rollups for bit-identity")
    diff.add_argument("left")
    diff.add_argument("right")
    diff.set_defaults(fn=_cmd_diff)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
