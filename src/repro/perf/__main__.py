"""``python -m repro.perf`` — profiling and the bench-regression gate.

Subcommands::

    record   run the pinned suite, write BENCH_current.json (or the
             baseline with --baseline)
    check    run the suite and gate it against BENCH_baseline.json;
             exits 1 on regression
    profile  cProfile one RunSpec cell and print the hot-path report
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..campaign.spec import RunSpec
from .bench_gate import (
    DEFAULT_TOLERANCE,
    evaluate_gate,
    format_verdicts,
    load_results,
    run_suite,
    write_results,
)
from .profile import profile_spec

BASELINE_NAME = "BENCH_baseline.json"
CURRENT_NAME = "BENCH_current.json"


def _add_suite_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--reps", type=int, default=5,
                        help="best-of-k repetitions per micro benchmark")
    parser.add_argument("--e2e-reps", type=int, default=3,
                        help="metrics-overhead cell: time max(6N, 24) "
                             "metered/unmetered pairs")
    parser.add_argument("--no-e2e", action="store_true",
                        help="skip the end-to-end metrics-overhead cell "
                             "(micro only)")


def _run(args: argparse.Namespace):
    return run_suite(reps=args.reps, e2e_reps=args.e2e_reps,
                     include_e2e=not args.no_e2e,
                     progress=lambda line: print(line, flush=True))


def _cmd_record(args: argparse.Namespace) -> int:
    results = _run(args)
    out = Path(args.output) if args.output else Path(
        BASELINE_NAME if args.baseline else CURRENT_NAME)
    write_results(results, out)
    print(f"wrote {out}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    baseline_path = Path(args.baseline_file)
    baseline = load_results(baseline_path) if baseline_path.exists() else None
    if baseline is None:
        print(f"note: no {baseline_path} — gating on absolute floors only")
    results = _run(args)
    write_results(results, Path(args.output or CURRENT_NAME))
    verdicts = evaluate_gate(results, baseline, tolerance=args.tolerance)
    print(format_verdicts(verdicts))
    failed = [v for v in verdicts if not v.passed]
    if failed:
        print(f"bench gate: {len(failed)} regression(s)")
        return 1
    print("bench gate: ok")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    spec = RunSpec(workload=args.workload, policy=args.policy,
                   pe_cycles=args.pe_cycles, n_requests=args.n_requests,
                   seed=args.seed)
    report = profile_spec(spec, top=args.top)
    print(report.format_table())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.perf",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_record = sub.add_parser("record", help="run the suite, write results")
    _add_suite_args(p_record)
    p_record.add_argument("--baseline", action="store_true",
                          help=f"write {BASELINE_NAME} instead of {CURRENT_NAME}")
    p_record.add_argument("--output", help="explicit output path")
    p_record.set_defaults(func=_cmd_record)

    p_check = sub.add_parser("check", help="run the suite and gate it")
    _add_suite_args(p_check)
    p_check.add_argument("--baseline-file", default=BASELINE_NAME)
    p_check.add_argument("--output", help=f"results path (default {CURRENT_NAME})")
    p_check.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                         help="allowed fractional drop vs baseline/floor")
    p_check.set_defaults(func=_cmd_check)

    p_profile = sub.add_parser("profile", help="cProfile one cell")
    p_profile.add_argument("--workload", default="Ali124")
    p_profile.add_argument("--policy", default="RiFSSD")
    p_profile.add_argument("--pe-cycles", type=float, default=2000.0)
    p_profile.add_argument("--n-requests", type=int, default=6000)
    p_profile.add_argument("--seed", type=int, default=7)
    p_profile.add_argument("--top", type=int, default=15)
    p_profile.set_defaults(func=_cmd_profile)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
