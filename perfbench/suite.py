"""The benchmark's three workloads, their repetitions, checks and
end-to-end metrics.

Every repetition starts from nothing the previous one built: a fresh
trace (or population), fresh simulators and therefore cold memo caches,
as in every campaign cell.  :func:`drive_rep` serves the single-drive
workloads (``worn-read``, ``fresh-write``); :func:`fleet_rep` serves
``fleet``.  Each returns a :class:`Rep` whose ``setup_s`` is the host time
before the timed region and ``timed_s`` the timed region itself, both
measured by a :class:`hostspeed.Sampler` and given at its reference
speed.

:func:`cell_problems` and :func:`digest` are the correctness checks: a
cell fails when it did not complete, lost or invented a read, moved the
wrong number of host bytes, or (checked by the caller across
repetitions) produced a different result digest.  :func:`self_test`
proves on a tiny drive that tampered results are caught.
:func:`end_to_end` repeats a workload for ``--seconds`` and reports the
metrics ``BENCHMARK.json`` lists under ``end_to_end``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.spec import RunSpec, build_simulator, build_trace
from repro.fleet.population import FleetSpec, generate_population
from repro.fleet.service import run_fleet
from repro.obs.slo import default_slos, evaluate_fleet
from repro.ssd import SimulationResult
from repro.ssd.metrics import SimMetrics

from hostspeed import Sampler

#: worn-read: both drives replay one Ali124 trace of this many requests
#: (~38,000 host reads in total, so p99.9 has ~38 reads beyond it).
WORN_READ_REQUESTS = 20_000
WORN_READ_POLICIES = ("RiFSSD", "SENC")
#: fresh-write: Ali2 is 27 % reads, so this many requests give ~16,000
#: host reads, enough for p99.9 to keep >= 10 reads beyond it.
FRESH_WRITE_REQUESTS = 60_000
#: fleet: hundreds of tiny drives, sized like the CI fleet smoke.
FLEET_DRIVES = 600
FLEET_REQUESTS = 40
FLEET_USER_PAGES = 1_200
FLEET_QUEUE_DEPTH = 8
FLEET_POLICIES = ("RiFSSD", "SENC", "OVCSSD")
FLEET_FAULT_RATE = 0.1
#: digest label of the fleet's comparable rollup
ROLLUP_LABEL = "fleet/rollup"
#: repetitions a timed run makes at least, however short ``--seconds`` is
MIN_REPS = 3
#: fresh interpreters whose import of the program ``setup_s`` times
IMPORT_SAMPLES = 3
#: what ``setup_s`` counts as importing the program
IMPORT_STATEMENT = "import repro, repro.fleet.service, repro.obs.slo"


def drive_specs(workload: str, seed: int) -> List[RunSpec]:
    """The campaign cells of a single-drive workload (one trace for all)."""
    if workload == "worn-read":
        return [RunSpec(workload="Ali124", policy=policy, pe_cycles=2000,
                        seed=seed, scale="small",
                        n_requests=WORN_READ_REQUESTS)
                for policy in WORN_READ_POLICIES]
    if workload == "fresh-write":
        return [RunSpec(workload="Ali2", policy="RiFSSD", pe_cycles=0,
                        seed=seed, scale="full",
                        n_requests=FRESH_WRITE_REQUESTS)]
    raise ValueError(f"{workload!r} is not a single-drive workload")


def fleet_spec(seed: int) -> FleetSpec:
    """The fleet workload's population (P/E 0-3,000, 5-90 d retention and
    the Ali124/Ali121/Sys1 mix are the FleetSpec defaults)."""
    return FleetSpec(
        n_drives=FLEET_DRIVES, seed=seed, policies=FLEET_POLICIES,
        fault_rate=FLEET_FAULT_RATE, n_requests=FLEET_REQUESTS,
        user_pages=FLEET_USER_PAGES, queue_depth=FLEET_QUEUE_DEPTH,
    )


def run_kwargs(spec: RunSpec) -> dict:
    """``run_trace`` arguments for a spec, as ``campaign.spec.execute``
    derives them (closed loop at the scale's queue depth)."""
    kwargs = dict(mode=spec.mode)
    if spec.mode == "closed":
        kwargs["queue_depth"] = spec.resolved_sizing().queue_depth
    if spec.time_limit_us is not None:
        kwargs["time_limit_us"] = spec.time_limit_us
    return kwargs


# --- small statistics -------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(q/100 * n)."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


# --- expected outputs and checks -------------------------------------------


@dataclass(frozen=True)
class TraceTotals:
    """What a drive must serve: its trace's reads and host bytes."""

    reads: int
    read_bytes: int
    write_bytes: int

    @classmethod
    def of(cls, trace) -> "TraceTotals":
        reads = [r.size_bytes for r in trace if r.is_read]
        writes = [r.size_bytes for r in trace if not r.is_read]
        return cls(len(reads), sum(reads), sum(writes))


def cell_problems(outcome, expected: TraceTotals) -> List[str]:
    """Why one drive's outcome is wrong (empty when it is right)."""
    if not isinstance(outcome, SimulationResult):
        return [f"cell failed: {getattr(outcome, 'kind', type(outcome).__name__)}"
                f": {getattr(outcome, 'message', outcome)}"]
    metrics = outcome.metrics
    problems = []
    if not outcome.completed:
        problems.append("run did not complete")
    counted = {len(metrics.read_latencies_us), metrics.read_latency_hist.count}
    if counted != {expected.reads}:
        problems.append(f"read latencies {sorted(counted)} != "
                        f"{expected.reads} trace reads")
    if metrics.host_read_bytes != expected.read_bytes:
        problems.append(f"host_read_bytes {metrics.host_read_bytes} != "
                        f"{expected.read_bytes}")
    if metrics.host_write_bytes != expected.write_bytes:
        problems.append(f"host_write_bytes {metrics.host_write_bytes} != "
                        f"{expected.write_bytes}")
    return problems


def digest(payload: dict) -> str:
    """SHA-256 of canonical JSON (floats at repr precision, so exact)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def page_ops(metrics: SimMetrics) -> int:
    """Simulated flash page operations: reads + writes + GC copies."""
    return metrics.page_reads + metrics.page_writes + metrics.gc_page_copies


# --- repetitions ------------------------------------------------------------


@dataclass
class Rep:
    """One repetition of a workload."""

    #: set-up and timed seconds at the reference speed
    setup_s: float
    timed_s: float
    #: (label, outcome, expected totals) per drive, in drive order
    cells: List[Tuple[str, object, TraceTotals]]
    #: result digests by label; compared across repetitions
    digests: Dict[str, str]
    notes: List[str] = field(default_factory=list)
    #: the same set-up + timed seconds, unscaled
    raw_s: float = 0.0
    #: the host speed factor during the timed region
    speed: float = 1.0

    @classmethod
    def measured(cls, setup: Sampler, timed: Sampler, **fields) -> "Rep":
        return cls(setup_s=setup.scaled_s, timed_s=timed.scaled_s,
                   raw_s=setup.seconds + timed.seconds,
                   speed=timed.speed, **fields)

    def results(self) -> List[SimulationResult]:
        return [outcome for _label, outcome, _exp in self.cells
                if isinstance(outcome, SimulationResult)]


def drive_rep(specs: List[RunSpec]) -> Rep:
    """Generate the trace, build every drive, then time their runs."""
    gc.collect()
    with Sampler() as setup:
        trace = build_trace(specs[0])
        sims = [build_simulator(spec) for spec in specs]
    with Sampler() as timed:
        results = [sim.run_trace(trace, **run_kwargs(spec))
                   for sim, spec in zip(sims, specs)]
    expected = TraceTotals.of(trace)
    labels = [spec.label() for spec in specs]
    return Rep.measured(
        setup, timed,
        cells=[(label, result, expected)
               for label, result in zip(labels, results)],
        digests={label: digest(result.to_dict())
                 for label, result in zip(labels, results)},
    )


class FleetTotals:
    """Expected per-drive totals of a fleet, computed once per run by
    regenerating each drive's trace (outside every timed region)."""

    def __init__(self):
        self._by_trace: Dict[tuple, TraceTotals] = {}

    def get(self, spec: RunSpec) -> TraceTotals:
        key = spec.trace_key()
        if key not in self._by_trace:
            self._by_trace[key] = TraceTotals.of(build_trace(spec))
        return self._by_trace[key]


def fleet_rep(fleet: FleetSpec, work_dir: Path, totals: FleetTotals) -> Rep:
    """Expand the population and make a fresh cache directory, then time
    ``run_fleet`` (which pays per-cell set-up and bookkeeping itself)
    plus SLO evaluation.

    The fleet runs serially in this process (``jobs=1``): on a host of a
    few shared cores a worker pool's timing measures the scheduler, and
    the host speed is sampled in this process (see ``hostspeed``)."""
    gc.collect()
    with Sampler() as setup:
        drives = generate_population(fleet)
        cache_dir = Path(tempfile.mkdtemp(prefix="fleet-cache-",
                                          dir=work_dir))
    with Sampler() as timed:
        run = run_fleet(fleet, jobs=1, cache=cache_dir)
        reports = evaluate_fleet(run.aggregator, default_slos())
    shutil.rmtree(cache_dir)
    cells = []
    for drive in drives:
        spec = drive.to_run_spec()
        cells.append((f"drive{drive.drive_id}", run.outcomes[drive.drive_id],
                      totals.get(spec)))
    notes = []
    expected_reports = len(run.aggregator.policies()) * len(default_slos())
    if len(reports) != expected_reports:
        notes.append(f"SLO evaluation gave {len(reports)} reports, "
                     f"expected {expected_reports}")
    return Rep.measured(
        setup, timed, cells=cells,
        digests={ROLLUP_LABEL: digest(run.comparable_rollup())},
        notes=notes,
    )


@dataclass
class Measured:
    """A workload's repetitions, checked as they finish.

    Only the first repetition keeps its outcomes (the modelled metrics
    come from it, and its digests are the reference); later ones keep
    their timings, so memory does not grow with the repetition count.
    Digests must match the first repetition's; a rollup mismatch or a
    failed SLO evaluation fails every cell of that repetition.
    """

    first: Optional[Rep] = None
    #: host seconds at the reference speed (see hostspeed)
    setup_s: List[float] = field(default_factory=list)
    timed_s: List[float] = field(default_factory=list)
    pages_per_s: List[float] = field(default_factory=list)
    #: host speed factor of each timed region
    speed: List[float] = field(default_factory=list)
    #: unscaled set-up + timed seconds per repetition
    raw_s: List[float] = field(default_factory=list)
    #: wall seconds per repetition, the checks and the sampler included
    wall_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, rep: Rep, wall_s: float = 0.0) -> None:
        index = len(self.timed_s)
        reference = (self.first or rep).digests
        mismatched = sorted(label for label, value in rep.digests.items()
                            if reference.get(label) != value)
        self.problems += [f"rep {index}: {label} digest differs from rep 0"
                          for label in mismatched]
        self.problems += [f"rep {index}: {note}" for note in rep.notes]
        whole_rep_failed = bool(rep.notes) or ROLLUP_LABEL in mismatched
        for label, outcome, expected in rep.cells:
            found = cell_problems(outcome, expected)
            self.problems += [f"rep {index}: {label}: {p}" for p in found]
            self.attempted += 1
            if found or whole_rep_failed or label in mismatched:
                self.failed += 1
        self.speed.append(rep.speed)
        self.raw_s.append(rep.raw_s)
        self.wall_s.append(wall_s)
        self.setup_s.append(rep.setup_s)
        self.timed_s.append(rep.timed_s)
        self.pages_per_s.append(
            sum(page_ops(r.metrics) for r in rep.results())
            / self.timed_s[-1])
        if self.first is None:
            self.first = rep


def repeat(workload: str, seed: int, seconds: float, min_reps: int,
           work_dir: Path) -> Measured:
    """Repetitions until ``seconds`` are used: a new one starts only when
    the last one's wall time still fits, and at least ``min_reps`` run."""
    if workload == "fleet":
        fleet = fleet_spec(seed)
        totals = FleetTotals()

        def once() -> Rep:
            return fleet_rep(fleet, work_dir, totals)
    else:
        specs = drive_specs(workload, seed)

        def once() -> Rep:
            return drive_rep(specs)

    measured = Measured()
    started = time.perf_counter()
    while (len(measured.timed_s) < min_reps
           or time.perf_counter() - started + measured.wall_s[-1] <= seconds):
        begun = time.perf_counter()
        rep = once()
        measured.add(rep, time.perf_counter() - begun)
    return measured


def sim_metrics(rep) -> Dict[str, float]:
    """Modelled-time metrics of one repetition (identical in every
    repetition when the digests agree)."""
    results = rep.results()
    reads = sorted(v for r in results for v in r.metrics.read_latencies_us)
    host_bytes = sum(r.metrics.host_read_bytes + r.metrics.host_write_bytes
                     for r in results)
    elapsed_us = sum(r.metrics.elapsed_us for r in results)
    if len(reads) < 10_000:
        raise RuntimeError(f"only {len(reads)} host reads; p99.9 needs "
                           ">= 10,000 to keep 10 reads beyond it")
    return {
        # bytes per simulated microsecond is decimal MB/s
        "sim_io_mb_s": host_bytes / elapsed_us,
        "sim_read_p50_us": nearest_rank(reads, 50.0),
        "sim_read_p999_us": nearest_rank(reads, 99.9),
        "sim_reads": len(reads),
    }


# --- end-to-end metrics -----------------------------------------------------


def import_seconds(src: Path) -> List[float]:
    """Seconds to import the program at the reference speed, each sample
    in a fresh interpreter (an import happens only once per process) that
    samples its own host speed."""
    code = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(Path(__file__).resolve().parent)!r}, "
        f"{str(src)!r}]",
        "from hostspeed import Sampler",
        "with Sampler() as region:",
        f"    {IMPORT_STATEMENT}",
        "print(region.scaled_s)",
    ])
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], cwd=src.parent,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb() -> float:
    """ru_maxrss of this process, which runs every workload itself, in
    MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: str, seed: int, seconds: float, work_dir: Path,
               src: Path) -> dict:
    """Timed repetitions, their checks and the end-to-end metrics."""
    measured = repeat(workload, seed, seconds, MIN_REPS, work_dir)
    rss_mb = peak_rss_mb()
    imports = import_seconds(src)
    sim = sim_metrics(measured.first)
    metrics = {
        "pages_per_s": quartiles(measured.pages_per_s)[1],
        "setup_s": quartiles(imports)[1] + quartiles(measured.setup_s)[1],
        "peak_rss_mb": rss_mb,
        "sim_io_mb_s": sim["sim_io_mb_s"],
        "sim_read_p50_us": sim["sim_read_p50_us"],
        "sim_read_p999_us": sim["sim_read_p999_us"],
    }
    lines = [f"== {workload}  seed {seed}  {len(measured.timed_s)} "
             "repetitions  (host metrics: median [q1, q3] over repetitions,"
             " seconds at the reference speed, see hostspeed.py)"]
    for name, values in (("pages_per_s", measured.pages_per_s),
                         ("setup_s.import", imports),
                         ("setup_s.inputs_and_build", measured.setup_s),
                         ("timed_s", measured.timed_s),
                         ("host_speed", measured.speed),
                         ("unscaled_pages_per_s",
                          [pages * speed for pages, speed in
                           zip(measured.pages_per_s, measured.speed)]),
                         ("unscaled_s", measured.raw_s),
                         ("wall_s", measured.wall_s)):
        q1, q2, q3 = quartiles(values)
        lines.append(f"   {name:<26s} {q2:14.6g} [{q1:.6g}, {q3:.6g}] "
                     f"n={len(values)}")
    attempted, failed = measured.attempted, measured.failed
    lines.append(f"   sim_reads                  {sim['sim_reads']:14d}")
    lines.append(f"   cells_failed_share         {failed / attempted:14.6g} "
                 f"fraction (lower is better; {failed} of {attempted} cells)")
    lines += [f"   digest {label} {value}"
              for label, value in sorted(measured.first.digests.items())]
    lines += [f"   FAILED {problem}" for problem in measured.problems]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "lines": lines}


def self_test() -> None:
    """Prove the checks catch tampered results (raises if they do not)."""
    spec = RunSpec(workload="Ali124", policy="RiFSSD", pe_cycles=2000,
                   seed=3, n_requests=200)
    trace = build_trace(spec)
    result = build_simulator(spec).run_trace(trace, **run_kwargs(spec))
    expected = TraceTotals.of(trace)
    if cell_problems(result, expected):
        raise AssertionError(f"self-test: a clean result was flagged: "
                             f"{cell_problems(result, expected)}")
    dropped = SimMetrics.from_dict(result.metrics.to_dict())
    dropped.read_latencies_us.pop()
    tampered = {
        "completed=False": dataclasses.replace(result, completed=False),
        "one read dropped": dataclasses.replace(result, metrics=dropped),
        "a host write byte lost": dataclasses.replace(
            result, metrics=dataclasses.replace(
                result.metrics,
                host_write_bytes=result.metrics.host_write_bytes - 1)),
    }
    for what, bad in tampered.items():
        if not cell_problems(bad, expected):
            raise AssertionError(f"self-test: {what} was not flagged")
        if digest(bad.to_dict()) == digest(result.to_dict()):
            raise AssertionError(f"self-test: {what} kept the digest")
    checked = Measured()
    for outcome in (result, tampered["one read dropped"]):
        checked.add(Rep(setup_s=0.0, timed_s=1.0,
                        cells=[("cell", outcome, expected)],
                        digests={"cell": digest(outcome.to_dict())}))
    if (checked.attempted, checked.failed) != (2, 1):
        raise AssertionError("self-test: the tampered repetition was not "
                             "counted as one failed cell")
