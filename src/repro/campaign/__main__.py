"""Campaign maintenance CLI: ``python -m repro.campaign <command>``.

Two commands, both built for the durable runtime
(:mod:`repro.campaign.durable`):

``verify-ledger DIR``
    fsck a campaign directory: journal CRCs, reconstructed cell states,
    claim/lease status, and cache-entry checksums.  Exit 0 when every
    problem found (if any) is recoverable by a resume, 1 on unrecoverable
    damage (mid-file journal corruption, corrupt cache entries), 2 when
    DIR holds no ledger journal.

``smoke-grid --ledger DIR``
    run a small, fixed fig.-17-style grid under a ledger.  This is the
    crash-recovery exercise driver used by the chaos tests and the CI
    smoke job: ``--kill-after`` SIGKILLs the campaign after the Nth
    executed cell (``--kill-window pre`` kills in the nastiest window,
    after the cache write but before the ledger's ``done``), and
    ``--torn-cell`` tears the Nth cell's cache write.  Re-invoking the
    identical command resumes from the ledger; ``--out`` writes the final
    results as JSON so an interrupted+resumed run can be diffed against
    an uninterrupted reference.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from ..errors import CampaignInterrupted, ReproError
from ..faults import FaultPlan, FaultSpec
from .durable import format_verify_report, grid_hash, verify_ledger
from .executor import run_specs
from .progress import CampaignStats, MultiProgress, PrintProgress
from .spec import RunSpec

#: The smoke grid: small enough for sub-second cells, large enough that a
#: mid-grid kill leaves a meaningful mix of done/claimed/pending cells.
SMOKE_WORKLOADS = ("Ali124",)
SMOKE_POLICIES = ("SENC", "SWR", "RiFSSD")
SMOKE_PE = (0.0, 1000.0)


def smoke_specs(seed: int) -> list:
    return [
        RunSpec(workload=workload, policy=policy, pe_cycles=pe, seed=seed,
                n_requests=60, user_pages=2_000, queue_depth=16)
        for workload in SMOKE_WORKLOADS
        for pe in SMOKE_PE
        for policy in SMOKE_POLICIES
    ]


def _cmd_verify_ledger(args) -> int:
    report = verify_ledger(args.directory, cache_dir=args.cache)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_verify_report(report))
    return 0 if report["ok"] else 1


def _campaign_faults(args):
    faults = []
    if args.kill_after is not None:
        faults.append(FaultSpec(
            kind="campaign_kill", start_read=args.kill_after, count=1,
            magnitude=0.0 if args.kill_window == "pre" else 1.0,
        ))
    if args.torn_cell is not None:
        faults.append(FaultSpec(
            kind="torn_cache_write", start_read=args.torn_cell, count=1,
            magnitude=args.torn_fraction,
        ))
    return FaultPlan(faults=tuple(faults)) if faults else None


def _cmd_smoke_grid(args) -> int:
    specs = smoke_specs(args.seed)
    stats = CampaignStats()
    progress = (MultiProgress([stats, PrintProgress()]) if args.progress
                else stats)
    try:
        with warnings.catch_warnings():
            # a quarantined-entry warning is an expected part of torn-write
            # recovery here, not console noise
            warnings.simplefilter("ignore", RuntimeWarning)
            results = run_specs(
                specs, jobs=args.jobs, ledger_dir=args.ledger,
                lease_s=args.lease_s, on_failure="record",
                campaign_faults=_campaign_faults(args), progress=progress,
            )
    except CampaignInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        print(f"hint: {exc.resume_hint}", file=sys.stderr)
        return 130
    payload = {
        "grid": grid_hash(specs),
        "executed": stats.executed,
        "cached": stats.cached,
        "cells": {
            spec.content_hash(): (
                outcome.to_dict() if hasattr(outcome, "metrics")
                else {"failure": outcome.to_dict()}
            )
            for spec, outcome in results.items()
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    print(f"smoke-grid: {stats.executed} executed, {stats.cached} replayed",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="campaign ledger maintenance and crash-recovery driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify-ledger",
        help="fsck a campaign directory (journal + cache integrity)",
    )
    verify.add_argument("directory", help="campaign ledger directory")
    verify.add_argument("--cache", default=None,
                        help="cache directory (default: DIR/cache)")
    verify.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")
    verify.set_defaults(func=_cmd_verify_ledger)

    smoke = sub.add_parser(
        "smoke-grid",
        help="run the fixed crash-recovery smoke grid under a ledger",
    )
    smoke.add_argument("--ledger", required=True,
                       help="ledger directory (created if missing)")
    smoke.add_argument("--jobs", type=int, default=1)
    smoke.add_argument("--seed", type=int, default=7)
    smoke.add_argument("--lease-s", type=float, default=900.0)
    smoke.add_argument("--kill-after", type=int, default=None, metavar="N",
                       help="SIGKILL this campaign after its Nth executed "
                            "cell (0-based)")
    smoke.add_argument("--kill-window", choices=("pre", "post"),
                       default="pre",
                       help="kill before (pre) or after (post) the ledger's "
                            "done record for that cell")
    smoke.add_argument("--torn-cell", type=int, default=None, metavar="N",
                       help="tear the cache write of the Nth executed cell")
    smoke.add_argument("--torn-fraction", type=float, default=0.5,
                       help="fraction of bytes the torn write keeps")
    smoke.add_argument("--out", default=None,
                       help="write final results JSON here (default stdout)")
    smoke.add_argument("--progress", action="store_true",
                       help="narrate per-cell completion to stderr")
    smoke.set_defaults(func=_cmd_smoke_grid)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
