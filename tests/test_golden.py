"""Golden result digests: the simulator's outputs, pinned bit for bit.

Each cell runs one pinned simulation (or one experiment's default grid)
and hashes its output with SHA-256.  Simulation results are hashed as
canonical JSON (``sort_keys=True``, compact separators), so a digest
covers every latency float, counter, channel-usage share and learned
adaptive state; the traced cells also cover request spans, lifecycle
instants and per-resource busy time; the experiment cells hash the
exported CSV bytes.  Most recorded digests were produced by two
independent implementations of the read pipeline; the large-request and
read-disturb cells were recorded with separate start paths for large
clean requests and for disturb-managed ones, and the one start loop
reproduces them.  So the digests are the reference the engine is held
to.

Check every cell (prints one line per cell, exits 1 on a mismatch)::

    PYTHONPATH=src python -m tests.test_golden

Re-record after an intended behaviour change, then review the JSON diff
(every changed digest is a changed simulation)::

    PYTHONPATH=src python -m tests.test_golden --record

Both commands take cell names to restrict the run to those cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.campaign.executor import CellFailure
from repro.campaign.spec import RunSpec, build_trace, execute
from repro.config import SSDConfig, small_test_config
from repro.experiments import chaos, frontier
from repro.experiments.export import result_to_csv
from repro.faults import FaultPlan, FaultSpec
from repro.obs.dashboard import prometheus_text, registry_jsonl
from repro.obs.registry import FleetAggregator
from repro.ssd.simulator import SSDSimulator
from repro.units import KIB
from repro.workloads import generate
from repro.workloads.synthetic import WorkloadSpec
from repro.workloads.trace import IORequest, Trace

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
REPO_ROOT = Path(__file__).resolve().parents[1]

#: A cell returns the bytes it is pinned by and the headline numbers a
#: mismatch report prints.
Cell = Callable[[], Tuple[bytes, dict]]


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def headline(result) -> dict:
    m = result.metrics
    return {"page_reads": m.page_reads, "elapsed_us": m.elapsed_us,
            "read_p99_us": m.read_latency_percentile(99.0)}


# --- the pinned cells ----------------------------------------------------------


SPECS = [
    RunSpec(workload="Ali124", policy="RiFSSD", pe_cycles=2000.0,
            n_requests=1200, seed=7),
    RunSpec(workload="Ali121", policy="SWR", pe_cycles=1000.0,
            n_requests=1200, seed=7),
    RunSpec(workload="Sys1", policy="RPSSD", pe_cycles=2000.0,
            n_requests=1200, seed=11),
    RunSpec(workload="Ali2", policy="RiFSSD", pe_cycles=2000.0,
            n_requests=1200, seed=7),
    RunSpec(workload="Sys0", policy="SSDone", pe_cycles=0.0,
            n_requests=1200, seed=7),
]


def spec_cell(spec: RunSpec) -> str:
    """The cell name of one of :data:`SPECS`; ``parametric`` names the
    RBER model the SSD samples (:mod:`repro.nand.rber`)."""
    return f"spec/{spec.workload}-{spec.policy}-parametric"


MODE_SPECS = {
    "arbitration": RunSpec(workload="Sys1", policy="RiFSSD",
                           pe_cycles=2000.0, n_requests=800, seed=7,
                           channel_arbitration=True),
    "timed": RunSpec(workload="Ali124", policy="SWR+", pe_cycles=2000.0,
                     n_requests=800, seed=7, mode="timed",
                     time_limit_us=40000.0),
    "read-disturb": RunSpec(workload="Sys0", policy="RPSSD",
                            pe_cycles=1000.0, n_requests=800, seed=13,
                            read_disturb_threshold=20),
}

FAULT_PLANS = {
    "sense+spike": FaultPlan(faults=(
        FaultSpec(kind="transient_sense", period=7, magnitude=2.0),
        FaultSpec(kind="latency_spike", period=5, magnitude=3.0),
    )),
    "badblock+corrupt": FaultPlan(faults=(
        FaultSpec(kind="grown_bad_block", channel=0, die=0, plane=0,
                  block=2, start_read=30),
        FaultSpec(kind="channel_corrupt", period=11, count=4, magnitude=1),
    )),
    "saturation+offline": FaultPlan(faults=(
        FaultSpec(kind="ecc_saturation", channel=0, start_us=200.0,
                  end_us=3000.0),
        FaultSpec(kind="die_offline", channel=1, die=0, start_read=60),
    ), on_degraded="absorb"),
}

#: Sys0 at 2K P/E under each fault plan, for two policies
FAULT_SPECS = {
    f"faults/{plan_name}-{policy}": RunSpec(
        workload="Sys0", policy=policy, pe_cycles=2000.0, n_requests=600,
        seed=7, fault_plan=plan)
    for plan_name, plan in FAULT_PLANS.items()
    for policy in ("RiFSSD", "SSDone")
}

TRACED_FAULTS = FaultPlan(faults=(
    FaultSpec(kind="transient_sense", period=9, magnitude=2.0),
    FaultSpec(kind="latency_spike", period=6, magnitude=2.5),
))

#: (policy, kwargs) of the history-driven family, at R = 180 d
ADAPTIVE = [
    ("OVCSSD", {}),
    ("OCASSD", {}),
    ("RVPSSD", {}),
]


def _result_cell(spec: RunSpec) -> Cell:
    def run():
        result = execute(spec)
        return canonical(result.to_dict()), headline(result)
    return run


def _traced_cell(**kwargs) -> Cell:
    def run():
        ssd = SSDSimulator(small_test_config(), policy="RiFSSD",
                           pe_cycles=2000.0, seed=31, tracing=True, **kwargs)
        trace = generate("Sys1", n_requests=300, user_pages=3000, seed=31)
        result = ssd.run_trace(trace)
        tracer = ssd.tracer
        payload = {
            "result": result.to_dict(),
            "request_spans": [asdict(ev) for ev in tracer.request_spans],
            "instants": [asdict(ev) for ev in tracer.instants],
            "resource_busy_by_tag": tracer.resource_busy_by_tag(),
        }
        return canonical(payload), headline(result)
    return run


def _gc_writes_drive() -> Tuple[SSDSimulator, Trace]:
    """A write-heavy trace on a drive small enough that writes trigger
    garbage collection (GC copies and erases share the resources with
    retried reads)."""
    config = SSDConfig().scaled(channels=2, dies_per_channel=1,
                                planes_per_die=2, blocks_per_plane=8,
                                pages_per_block=16)
    ssd = SSDSimulator(config, policy="SWR", pe_cycles=1000.0, seed=5)
    return ssd, generate("Ali2", n_requests=400,
                         user_pages=ssd.ftl.user_pages, seed=5)


def _disturb_relocation_drive() -> Tuple[SSDSimulator, Trace]:
    """Reads hammering four pages: read-disturb management relocates their
    block over and over (``mode/read-disturb`` relocates only a few)."""
    trace = Trace([IORequest(float(i), "R", (i % 4) * 16 * KIB, 16 * KIB)
                   for i in range(600)], name="hot-read")
    ssd = SSDSimulator(small_test_config(), policy="RiFSSD",
                       pe_cycles=2000.0, seed=2, read_disturb_threshold=50)
    return ssd, trace


#: Requests of 384 KiB to 1 MiB: every read spans 24 to 64 pages, well
#: past the 16-page ceiling of the synthetic workloads.
LARGE_REQUESTS = WorkloadSpec(
    "large-requests", read_ratio=0.85, cold_read_ratio=0.6,
    sizes=(384 * KIB, 512 * KIB, 768 * KIB, 1024 * KIB),
    size_weights=(0.4, 0.3, 0.2, 0.1))


def _large_request_trace(user_pages: int) -> Trace:
    return generate(LARGE_REQUESTS, n_requests=160, user_pages=user_pages,
                    seed=17)


def _large_request_drive() -> Tuple[SSDSimulator, Trace]:
    """Multi-page reads far larger than any synthetic workload's, cold and
    warm pages mixed, with some writes in between."""
    ssd = SSDSimulator(small_test_config(), policy="RiFSSD",
                       pe_cycles=2000.0, seed=17)
    return ssd, _large_request_trace(ssd.ftl.user_pages)


#: The hand-built drives and their traces, each replayed at queue depth 8.
DRIVES: Dict[str, Callable[[], Tuple[SSDSimulator, Trace]]] = {
    "mode/gc-writes": _gc_writes_drive,
    "mode/disturb-relocation": _disturb_relocation_drive,
    "mode/large-requests": _large_request_drive,
}


def _drive_cell(build: Callable[[], Tuple[SSDSimulator, Trace]]) -> Cell:
    def run():
        ssd, trace = build()
        result = ssd.run_trace(trace, queue_depth=8)
        return canonical(result.to_dict()), headline(result)
    return run


def _fleet_rollup_cell() -> Tuple[bytes, dict]:
    spec = RunSpec(workload="Ali124", policy="RiFSSD", pe_cycles=1000.0,
                   n_requests=80, seed=7)
    result = execute(spec, build_trace(spec))
    fleet = FleetAggregator()
    fleet.observe(spec, result)
    return canonical(fleet.to_dict()), headline(result)


#: a fault cell's spec under a new seed, recorded as a failed cell
FAILED_SPEC = RunSpec(workload="Sys0", policy="SSDone", pe_cycles=2000.0,
                      n_requests=600, seed=8)


def _fault_fleet() -> FleetAggregator:
    """The six fault cells and one failed cell folded into one rollup:
    two policies, degraded cells and a failure."""
    fleet = FleetAggregator()
    for name in sorted(FAULT_SPECS):
        fleet.observe(FAULT_SPECS[name], execute(FAULT_SPECS[name]))
    fleet.observe(FAILED_SPEC, CellFailure(
        spec_hash=FAILED_SPEC.content_hash(), label=FAILED_SPEC.label(),
        kind="error", message="injected failure", attempts=1))
    return fleet


def _fleet_exports_cell() -> Tuple[bytes, dict]:
    """The fault fleet's rollup in every export format: the JSON state,
    the Prometheus text and the per-sample JSONL."""
    fleet = _fault_fleet()
    data = b"\n".join((canonical(fleet.to_dict()),
                       prometheus_text(fleet).encode(),
                       registry_jsonl(fleet).encode()))
    return data, {"cells": fleet.cells, "failed": fleet.failed,
                  "policies": fleet.policies()}


def _experiment_csv_cell(module) -> Cell:
    """An experiment's default grid, pinned by its exported CSV (the file
    ``python -m repro.experiments <id> --csv DIR`` writes)."""
    def run():
        result = module.run()
        with tempfile.TemporaryDirectory() as tmp:
            data = result_to_csv(result, Path(tmp) / "out.csv").read_bytes()
        return data, {"rows": len(result.rows), **result.headline}
    return run


def _cells() -> Dict[str, Cell]:
    cells: Dict[str, Cell] = {}
    for spec in SPECS:
        cells[spec_cell(spec)] = _result_cell(spec)
    for mode, spec in MODE_SPECS.items():
        cells[f"mode/{mode}"] = _result_cell(spec)
    for name, build in DRIVES.items():
        cells[name] = _drive_cell(build)
    for name, spec in FAULT_SPECS.items():
        cells[name] = _result_cell(spec)
    cells["traced/clean"] = _traced_cell()
    cells["traced/faults"] = _traced_cell(fault_plan=TRACED_FAULTS)
    for policy, kwargs in ADAPTIVE:
        cells[f"adaptive/{policy}-R180"] = _result_cell(RunSpec(
            workload="Ali124", policy=policy, pe_cycles=2000.0, seed=7,
            scale="small", n_requests=240, policy_kwargs=kwargs,
            config_overrides={"reliability": {"refresh_days": 180.0}}))
    cells["fleet/rollup"] = _fleet_rollup_cell
    cells["fleet/exports"] = _fleet_exports_cell
    cells["experiment/frontier-csv"] = _experiment_csv_cell(frontier)
    cells["experiment/chaos-csv"] = _experiment_csv_cell(chaos)
    return cells


CELLS = _cells()


# --- recording and checking ----------------------------------------------------


def host() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "system": platform.system()}


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def compute(name: str) -> Tuple[str, dict]:
    data, numbers = CELLS[name]()
    return hashlib.sha256(data).hexdigest(), numbers


def mismatch(name: str, recorded: dict, digest: str, numbers: dict,
             recorded_on: dict) -> str:
    """Empty when the cell matches its golden entry, else a report naming
    the cell with recorded and current headline numbers."""
    if recorded.get("sha256") == digest:
        return ""
    lines = [f"golden cell {name!r} changed",
             f"  recorded: {recorded.get('sha256')}  {recorded.get('headline')}",
             f"  now:      {digest}  {numbers}"]
    if recorded_on != host():
        lines.append(f"  recorded on {recorded_on}, running on {host()}")
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_digest(name):
    golden = load()
    assert name in golden["cells"], (
        f"no golden entry for {name!r}; record it with "
        "`PYTHONPATH=src python -m tests.test_golden --record " + name + "`")
    digest, numbers = compute(name)
    report = mismatch(name, golden["cells"][name], digest, numbers,
                      golden["recorded_on"])
    assert not report, report


def test_golden_file_covers_exactly_the_cells():
    assert sorted(load()["cells"]) == sorted(CELLS)


def _metric(field: str) -> Callable[[str], int]:
    """Probe: a counter of the cell's simulation result."""
    return lambda name: json.loads(CELLS[name]()[0])["metrics"][field]


def _largest_read(name: str) -> int:
    """Probe: pages in the largest read a large-request cell replays."""
    user_pages = SSDSimulator(small_test_config()).ftl.user_pages
    return max(len(req.lpns()) for req in _large_request_trace(user_pages)
               if req.is_read)


def _degraded_cells(name: str) -> int:
    """Probe: degraded cells in the fault fleet's rollup."""
    return sum(row["degraded_cells"]
               for row in _fault_fleet().policy_summary())


#: the event each cell is named for: (event, probe, least count)
EXERCISES = {
    "mode/read-disturb": ("disturb relocations",
                          _metric("disturb_relocations"), 1),
    "mode/disturb-relocation": ("disturb relocations",
                                _metric("disturb_relocations"), 1),
    "mode/gc-writes": ("GC page copies", _metric("gc_page_copies"), 1),
    **{name: ("fault firings", _metric("faults_injected"), 1)
       for name in FAULT_SPECS},
    "mode/large-requests": ("pages in one read", _largest_read, 24),
    "fleet/exports": ("degraded cells", _degraded_cells, 1),
}


@pytest.mark.parametrize("name", sorted(EXERCISES))
def test_cell_exercises_its_named_event(name):
    """A cell pins the path it is named for only if its run reaches it."""
    event, probe, least = EXERCISES[name]
    count = probe(name)
    assert count >= least, f"{name}: {event} = {count}, want >= {least}"


#: one cell of each kind: plain, faulted, traced, adaptive, rollup and
#: the rollup's exports
HASH_SEED_CELLS = ("spec/Ali124-RiFSSD-parametric",
                   "faults/badblock+corrupt-RiFSSD", "traced/faults",
                   "adaptive/OVCSSD-R180", "fleet/rollup", "fleet/exports")


@pytest.mark.parametrize("hash_seed", ["0", "1", None])
def test_digests_independent_of_hash_seed(hash_seed):
    """String hashing is randomised per interpreter unless PYTHONHASHSEED
    pins it; no digest may depend on set or hash order."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tests.test_golden", *HASH_SEED_CELLS],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def main(argv: List[str]) -> int:
    record = "--record" in argv
    names = [a for a in argv if a != "--record"] or sorted(CELLS)
    unknown = [n for n in names if n not in CELLS]
    if unknown:
        print(f"unknown cell(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    golden = load() if GOLDEN.exists() else {"cells": {}, "recorded_on": {}}
    failures = 0
    for name in names:
        digest, numbers = compute(name)
        if record:
            golden["cells"][name] = {"sha256": digest, "headline": numbers}
            print(f"recorded {name}: {digest}")
            continue
        report = mismatch(name, golden["cells"].get(name, {}), digest,
                          numbers, golden["recorded_on"])
        failures += bool(report)
        print(report or f"ok {name}: {digest}")
    if record:
        golden["recorded_on"] = host()
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
