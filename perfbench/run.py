"""Repository benchmark: end-to-end and per-layer numbers for the simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload worn-read --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 30 --trace 1

``--trace 0`` repeats the workload, each repetition from a fresh set-up,
until ``--seconds`` of host time are used (at least three repetitions),
checks every drive of every repetition and prints the end-to-end metrics
listed in ``BENCHMARK.json`` (``suite.end_to_end``).  ``--trace 1`` runs two
untraced repetitions as the reference and then the traced pass, and
prints the per-layer metrics (``traced.per_layer``).  ``--workload all``
runs the three workloads in turn at one seed.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the exit code is non-zero when any check failed.

See ``perfbench/BENCHMARK.md`` for the workloads, the load model and the
definition of every metric.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: spans and temporary directories; listed in the repository's .gitignore
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("worn-read", "fresh-write", "fleet")


def emit(workload: str, outcome: dict, declared: List[dict]) -> Dict[str, dict]:
    """Print the workload's block; return its metrics in the result-line
    shape.  The measured names must be exactly the declared ones."""
    measured = outcome["metrics"]
    names = {entry["name"] for entry in declared}
    if set(measured) != names:
        raise RuntimeError(
            f"{workload}: measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(names - set(measured))}, "
            f"extra {sorted(set(measured) - names)}")
    for line in outcome["lines"]:
        print(line)
    print(f"   -- metrics ({workload})")
    for entry in declared:
        print(f"   {entry['name']:<34s} {measured[entry['name']]:16.8g} "
              f"{entry['unit']} ({entry['better']} is better)")
    return {entry["name"]: {"value": measured[entry["name"]],
                            "unit": entry["unit"]} for entry in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # the program is imported from this checkout's sources, never from an
    # installed copy; the benchmark's own modules import it, so they are
    # imported only once the path is set
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import suite
    import traced

    suite.self_test()
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)["per_layer" if args.trace
                                     else "end_to_end"]
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    OUT_DIR.mkdir(exist_ok=True)
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    memo_tables = {}
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as work:
        for workload in workloads:
            if args.trace:
                outcome = traced.per_layer(workload, args.seed, Path(work),
                                           OUT_DIR)
                memo_tables[workload] = outcome["memo"]
            else:
                outcome = suite.end_to_end(workload, args.seed, args.seconds,
                                           Path(work), SRC)
            attempted += outcome["attempted"]
            failed += outcome["failed"]
            shown = emit(workload, outcome, declared)
            if len(workloads) == 1:
                metrics = shown
            else:
                metrics.update({f"{workload}.{name}": value
                                for name, value in shown.items()})
    if len(memo_tables) > 1:
        for line in traced.memo_audit(memo_tables):
            print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
