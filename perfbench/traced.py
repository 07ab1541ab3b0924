"""The traced pass: per-layer numbers from spans around public calls.

The end-to-end run measures with nothing attached.  This pass calls each
layer's public function itself, in the order the program calls them,
and records a span around every call: name, start, end, parent span and
cell id (``RunSpec.content_hash()``).  Spans stay in memory and are
written once, to ``.perfbench/spans-<workload>-seed<seed>.json``.  Every
span is recorded by the benchmark's own code; the program is unchanged.

Single-drive workloads: ``build_trace``, then ``build_simulator`` and
``run_trace`` per drive, then one ``repro.perf.profile.profile_spec``
per drive for the self-time split by subsystem.

``fleet`` runs in two serial parts.  Part 1 is one ``run_fleet(jobs=1)``
seen through the extension points it offers its callers: a progress hook
that records each cell's seconds as the executor measured them, and a
result cache and rollup aggregator that span each ``get``, ``put`` and
``observe``.  Part 2 replays the same cells one public call at a time,
adding the calls the parallel and durable paths make (pickle round
trip, ``RunLedger`` claim/done, a replaying cache ``get``).  Part 1's wall
time minus its spans, and minus the part-2 spans of the calls no
extension point sees (trace generation, population expansion), is
``campaign.residual_s``: the scheduler's own cost.
"""

from __future__ import annotations

import json
import pickle
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.campaign import ProgressHook, ResultCache, RunLedger
from repro.campaign.spec import RunSpec, build_simulator, build_trace
from repro.fleet.population import generate_population
from repro.fleet.service import comparable_rollup, fleet_specs, run_fleet
from repro.obs.registry import FleetAggregator
from repro.obs.slo import default_slos, evaluate_fleet
from repro.perf.profile import profile_spec

import suite

#: every memo cache of ``SSDSimulator.cache_stats()`` at the time the
#: benchmark was defined; a cache that no longer exists reports 0 lookups
MEMO_CACHES = (
    "reliability.cold_age", "reliability.page_base",
    "rber.anchor_cross_days", "rber.rber_prog", "rber.disturb_per_read",
    "rber.variation_factor", "rber.block_factor", "rber.retention_base",
    "ecc.decode_params", "ecc.p_predict_retry",
)
#: ``ChannelUsage`` fields: the Fig.-18 categories of channel time
CHANNEL_KEYS = ("cor", "uncor", "write", "gc", "eccwait", "idle")
#: ``profile_spec`` subsystem buckets ("repro/ssd" -> "ssd")
PROFILE_BUCKETS = ("ssd", "nand", "ldpc", "workloads", "perf", "core",
                   "obs", "other")
#: untraced repetitions that give the reference wall time and digests
REFERENCE_REPS = 2
#: caches under this hit rate on every workload are deletion candidates
AUDIT_HIT_RATE = 0.01
#: spans recorded inside ``run_fleet(jobs=1)`` through its extension points
PART1_SPANS = ("campaign.execute", "campaign.cache_get", "campaign.cache_put",
               "obs.observe")
#: calls ``run_fleet(jobs=1)`` makes that no extension point sees; their
#: seconds come from the replica
PART1_UNSEEN = ("workloads.build_trace", "fleet.generate_population")
#: metrics of layers that only the fleet workload calls
FLEET_ONLY = (
    "fleet.population_s", "campaign.hash_s", "campaign.pickle_s",
    "campaign.pickle_kb", "campaign.cache_put_s", "campaign.cache_get_s",
    "campaign.ledger_s", "campaign.cell_s.p50", "campaign.cell_s.tail",
    "campaign.residual_s", "campaign.sim_share", "obs.observe_s",
    "obs.slo_s",
)


class Spans:
    """In-memory span log; nesting follows the ``with`` blocks."""

    def __init__(self):
        self.records: List[dict] = []
        self._open: List[int] = []
        self._origin = time.perf_counter()

    def _record(self, name: str, cell: Optional[str], start_s: float,
                end_s: Optional[float]) -> dict:
        record = {"id": len(self.records), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "root": self._open[0] if self._open else len(self.records),
                  "cell": cell, "start_s": start_s, "end_s": end_s}
        self.records.append(record)
        return record

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[dict]:
        record = self._record(name, cell, time.perf_counter() - self._origin,
                              None)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter() - self._origin
            self._open.pop()

    def closed(self, name: str, cell: str, seconds: float,
               end_s: float) -> None:
        """A span measured by someone else (the program's own per-cell
        seconds), ending at ``end_s``."""
        self._record(name, cell, end_s - seconds, end_s)

    def seconds(self, *names: str, root: Optional[dict] = None) -> float:
        """Summed duration of every span named one of ``names`` (below
        ``root`` when given)."""
        return sum(r["end_s"] - r["start_s"] for r in self.records
                   if r["name"] in names
                   and (root is None or r["root"] == root["id"]))

    def write(self, path: Path, **header) -> None:
        with open(path, "w") as handle:
            json.dump({**header, "spans": self.records}, handle)


class LayerCounts:
    """Exact modelled-work counters summed over a workload's drives."""

    def __init__(self):
        self.sums: Counter = Counter()
        self.ecc_peak_slots = 0
        self.memo: Dict[str, List[int]] = {name: [0, 0] for name in MEMO_CACHES}

    def add(self, sim, result) -> None:
        metrics, usage, sums = result.metrics, result.channel_usage, self.sums
        sums["events"] += sim.sim.processed_events
        for key in ("page_reads", "page_writes", "gc_page_copies",
                    "retried_reads", "in_die_retries",
                    "uncorrectable_transfers", "rp_mispredicts",
                    "total_senses", "adaptive_hits", "adaptive_mispredicts",
                    "faults_injected", "fault_retries", "degraded_reads"):
            sums[key] += getattr(metrics, key)
        for key in CHANNEL_KEYS:
            sums[f"chan.{key}"] += getattr(usage, key)
        self.ecc_peak_slots = max(self.ecc_peak_slots,
                                  *(ecc.peak_slots_in_use for ecc in sim.eccs))
        for stats in sim.cache_stats():
            entry = self.memo.setdefault(stats["name"], [0, 0])
            entry[0] += stats["hits"]
            entry[1] += stats["hits"] + stats["misses"]

    def metrics(self, run_s: float) -> Dict[str, float]:
        s = self.sums
        pages = s["page_reads"] + s["page_writes"] + s["gc_page_copies"]
        channel = sum(s[f"chan.{key}"] for key in CHANNEL_KEYS)
        out = {
            "ssd.run_s": run_s,
            "ssd.events": s["events"],
            "ssd.events_per_page": s["events"] / pages,
            "ssd.ns_per_event": run_s * 1e9 / s["events"],
            "ssd.page_reads": s["page_reads"],
            "ssd.page_writes": s["page_writes"],
            "ssd.gc_page_copies": s["gc_page_copies"],
            "ssd.senses": s["total_senses"],
            "ssd.retried_reads": s["retried_reads"],
            "ssd.in_die_retries": s["in_die_retries"],
            "ssd.uncor_transfers": s["uncorrectable_transfers"],
            "ssd.rp_mispredicts": s["rp_mispredicts"],
            "ssd.senses_per_read": s["total_senses"] / s["page_reads"],
            "ssd.cor_transfer_share":
                s["chan.cor"] / (s["chan.cor"] + s["chan.uncor"]),
            "ecc.peak_slots": self.ecc_peak_slots,
            "adaptive.hits": s["adaptive_hits"],
            "adaptive.mispredicts": s["adaptive_mispredicts"],
            "faults.injected": s["faults_injected"],
            "faults.retries": s["fault_retries"],
            "faults.degraded_reads": s["degraded_reads"],
        }
        for key in CHANNEL_KEYS:
            out[f"chan.{key}"] = s[f"chan.{key}"] / channel
        for name in MEMO_CACHES:
            hits, lookups = self.memo[name]
            out[f"memo.{name}.hit_rate"] = hits / lookups if lookups else 0.0
            out[f"memo.{name}.lookups"] = lookups
        return out

    def memo_lines(self) -> List[str]:
        lines = ["   -- memo caches (hits / lookups)"]
        for name, (hits, lookups) in self.memo.items():
            rate = hits / lookups if lookups else 0.0
            flag = "  < 1 % hits" if rate < AUDIT_HIT_RATE else ""
            lines.append(f"   {name:<26s} {hits:>9d} / {lookups:<9d} "
                         f"{rate:8.2%}{flag}")
        return lines


def profile_shares(specs: List[RunSpec]) -> Dict[str, float]:
    """``profile.<bucket>.share``: cProfile self time per subsystem as a
    share of the profiled ``repro`` self time.  Shares only: cProfile
    inflates seconds."""
    seconds: Counter = Counter()
    for spec in specs:
        report = profile_spec(spec, trace_resources=False)
        for bucket, secs in report.subsystems.items():
            seconds[bucket.replace("repro/", "")] += secs
    total = sum(seconds.values())
    return {f"profile.{bucket}.share": seconds[bucket] / total
            for bucket in PROFILE_BUCKETS}


class SpannedCache(ResultCache):
    """The campaign's result cache with a span around each get and put."""

    def __init__(self, root: Path, spans: Spans, cell_ids: Dict[RunSpec, str]):
        super().__init__(root)
        self._spans, self._cell_ids = spans, cell_ids

    def get(self, spec: RunSpec):
        with self._spans.span("campaign.cache_get", self._cell_ids[spec]):
            return super().get(spec)

    def put(self, spec: RunSpec, result):
        with self._spans.span("campaign.cache_put", self._cell_ids[spec]):
            return super().put(spec, result)


class SpannedAggregator(FleetAggregator):
    """The fleet rollup with a span around each observed cell."""

    def __init__(self, spans: Spans, cell_ids: Dict[RunSpec, str]):
        super().__init__()
        self._spans, self._cell_ids = spans, cell_ids

    def observe(self, spec, outcome, cached: bool = False) -> None:
        with self._spans.span("obs.observe", self._cell_ids[spec]):
            super().observe(spec, outcome, cached)


class CellSpans(ProgressHook):
    """Each executed cell's seconds, as the executor measured them
    (``build_simulator`` + ``run_trace``), recorded as a span that ends
    where the cell's cache put began (the put runs before this hook)."""

    def __init__(self, spans: Spans, cell_ids: Dict[RunSpec, str]):
        self._spans, self._cell_ids = spans, cell_ids
        self.seconds: List[float] = []

    def on_result(self, spec, result, elapsed_s: float, cached: bool) -> None:
        self.seconds.append(elapsed_s)
        cell = self._cell_ids[spec]
        put = self._spans.records[-1]
        end_s = (put["start_s"] if put["name"] == "campaign.cache_put"
                 and put["cell"] == cell else put["end_s"])
        self._spans.closed("campaign.execute", cell, elapsed_s, end_s)


def tail_cell(seconds: List[float]) -> Tuple[float, float]:
    """(percentile, value) of the highest percentile with ten cells
    beyond it."""
    ordered = sorted(seconds)
    rank = len(ordered) - 10
    return 100.0 * rank / len(ordered), ordered[rank - 1]


# --- the traced passes ---------------------------------------------------------


@dataclass
class PassResult:
    """What one traced pass measured and found."""

    metrics: Dict[str, float]
    #: cell label -> problems (empty list = the cell is correct)
    cells: Dict[str, List[str]]
    #: drives whose hot path ``profile_spec`` splits after the pass
    profiled: List[RunSpec]
    lines: List[str] = field(default_factory=list)


def drive_pass(workload: str, seed: int, spans: Spans, layer: LayerCounts,
               reference: Dict[str, str]) -> PassResult:
    specs = suite.drive_specs(workload, seed)
    cells: Dict[str, List[str]] = {}
    lines: List[str] = []
    with spans.span(f"workload.{workload}"):
        with spans.span("workloads.build_trace", specs[0].content_hash()):
            trace = build_trace(specs[0])
        expected = suite.TraceTotals.of(trace)
        for spec in specs:
            cell = spec.content_hash()
            with spans.span("ssd.build_simulator", cell):
                sim = build_simulator(spec)
            with spans.span("ssd.run_trace", cell):
                result = sim.run_trace(trace, **suite.run_kwargs(spec))
            layer.add(sim, result)
            shares = result.channel_usage.fractions()
            lines.append(
                f"   {spec.label():<24s} channel UNCOR {shares['UNCOR']:.1%}, "
                f"ECCWAIT {shares['ECCWAIT']:.1%}; "
                f"{sim.sim.processed_events / suite.page_ops(result.metrics):.2f}"
                " events per page")
            problems = suite.cell_problems(result, expected)
            if suite.digest(result.to_dict()) != reference[spec.label()]:
                problems.append("digest differs from the untraced run")
            cells[spec.label()] = problems
    metrics = {
        "workloads.generate_s": spans.seconds("workloads.build_trace"),
        "ssd.build_s": spans.seconds("ssd.build_simulator"),
        **layer.metrics(spans.seconds("ssd.run_trace")),
        # only the fleet workload calls these layers
        **dict.fromkeys(FLEET_ONLY, 0.0),
    }
    return PassResult(metrics, cells, specs, lines)


def fleet_pass(seed: int, work_dir: Path, spans: Spans, layer: LayerCounts,
               reference: Dict[str, str]) -> PassResult:
    fleet = suite.fleet_spec(seed)
    specs = fleet_specs(fleet)
    cell_ids = {spec: spec.content_hash() for spec in specs}

    # part 1: the program's own serial run, seen through its extension
    # points (cache object, rollup aggregator, progress hook)
    hook = CellSpans(spans, cell_ids)
    with spans.span("fleet.run_fleet") as part1:
        run = run_fleet(
            fleet, jobs=1, progress=hook,
            cache=SpannedCache(work_dir / "part1-cache", spans, cell_ids),
            fleet_aggregator=SpannedAggregator(spans, cell_ids))
    run_fleet_s = part1["end_s"] - part1["start_s"]

    # part 2: the same cells one public call at a time, plus the calls the
    # parallel (pickle) and durable (ledger) paths and a replay (get) make
    cache = ResultCache(work_dir / "part2-cache")
    aggregator = FleetAggregator()
    results, totals, replay_ok = [], [], []
    pickled_bytes = 0
    with spans.span("fleet.serial_replica") as part2:
        with spans.span("fleet.generate_population"):
            specs = [drive.to_run_spec()
                     for drive in generate_population(fleet)]
        with spans.span("campaign.ledger_open"):
            ledger = RunLedger(work_dir / "ledger", specs)
        try:
            for spec in specs:
                with spans.span("campaign.content_hash") as hashed:
                    cell = spec.content_hash()
                hashed["cell"] = cell
                with spans.span("workloads.build_trace", cell):
                    trace = build_trace(spec)
                with spans.span("campaign.ledger_claim", cell):
                    ledger.claim(spec)
                with spans.span("ssd.build_simulator", cell):
                    sim = build_simulator(spec)
                with spans.span("ssd.run_trace", cell):
                    result = sim.run_trace(trace, **suite.run_kwargs(spec))
                with spans.span("campaign.pickle_roundtrip", cell):
                    blob = pickle.dumps((spec, result))
                    pickle.loads(blob)
                with spans.span("campaign.cache_put", cell):
                    cache.put(spec, result)
                with spans.span("campaign.ledger_done", cell):
                    ledger.done(spec)
                with spans.span("campaign.cache_get", cell):
                    replayed = cache.get(spec)
                pickled_bytes += len(blob)
                layer.add(sim, result)
                results.append(result)
                totals.append(suite.TraceTotals.of(trace))
                replay_ok.append(replayed is not None
                                 and replayed.to_dict() == result.to_dict())
        finally:
            ledger.close()
        for spec, result in zip(specs, results):
            with spans.span("obs.observe", cell_ids[spec]):
                aggregator.observe(spec, result)
        with spans.span("obs.evaluate_fleet"):
            evaluate_fleet(aggregator, default_slos())

    # every drive of both parts is a cell; a rollup that differs from the
    # untraced run fails every cell of its part
    cells: Dict[str, List[str]] = {}
    for part, outcomes, rollup in (
            ("run_fleet", [run.outcomes[i] for i in range(len(specs))],
             run.rollup()),
            ("replica", results, aggregator.to_dict())):
        rollup_ok = (suite.digest(comparable_rollup(rollup))
                     == reference[suite.ROLLUP_LABEL])
        for index, (outcome, expected) in enumerate(zip(outcomes, totals)):
            problems = suite.cell_problems(outcome, expected)
            if part == "replica" and not replay_ok[index]:
                problems.append("cache replay differs from the result")
            if not rollup_ok:
                problems.append("rollup digest differs from the untraced "
                                "run")
            cells[f"{part}/drive{index}"] = problems

    # wall time of run_fleet(jobs=1) = spans measured inside it + the
    # part-2 spans of the calls it makes that no extension point sees
    # (trace generation, population expansion) + the scheduler's residual
    inside_s = spans.seconds(*PART1_SPANS, root=part1)
    unseen_s = spans.seconds(*PART1_UNSEEN, root=part2)
    residual_s = run_fleet_s - inside_s - unseen_s
    build_s = spans.seconds("ssd.build_simulator", root=part2)
    simulate_s = spans.seconds("campaign.execute", root=part1) - build_s
    pct, tail = tail_cell(hook.seconds)
    n = len(specs)
    metrics = {
        "workloads.generate_s": spans.seconds("workloads.build_trace"),
        "fleet.population_s": spans.seconds("fleet.generate_population"),
        "ssd.build_s": build_s,
        **layer.metrics(spans.seconds("ssd.run_trace")),
        "campaign.hash_s": spans.seconds("campaign.content_hash"),
        "campaign.pickle_s": spans.seconds("campaign.pickle_roundtrip"),
        "campaign.pickle_kb": pickled_bytes / 1024.0,
        "campaign.cache_put_s": spans.seconds("campaign.cache_put",
                                              root=part1),
        "campaign.cache_get_s": spans.seconds("campaign.cache_get",
                                              root=part2),
        "campaign.ledger_s": spans.seconds(
            "campaign.ledger_open", "campaign.ledger_claim",
            "campaign.ledger_done"),
        "campaign.cell_s.p50": suite.nearest_rank(sorted(hook.seconds), 50.0),
        "campaign.cell_s.tail": tail,
        "campaign.residual_s": residual_s,
        "campaign.sim_share": simulate_s / run_fleet_s,
        "obs.observe_s": spans.seconds("obs.observe", root=part1),
        "obs.slo_s": spans.seconds("obs.evaluate_fleet"),
    }
    setup_s = unseen_s + build_s
    bookkeeping_s = run_fleet_s - simulate_s - setup_s
    ledger_cell_s = spans.seconds("campaign.ledger_claim",
                                  "campaign.ledger_done") / n
    lines = [f"   run_fleet(jobs=1) {run_fleet_s:.3f} s = "
             f"{inside_s + unseen_s:.3f} s of spans + residual "
             f"{residual_s:.3f} s"]
    lines += [f"     {name:<26s} {spans.seconds(name, root=part1):8.3f} s"
              "  (inside run_fleet)" for name in PART1_SPANS]
    lines += [f"     {name:<26s} {spans.seconds(name, root=part2):8.3f} s"
              "  (replica)" for name in PART1_UNSEEN]
    lines += [
        f"   per-cell seconds: p50 {metrics['campaign.cell_s.p50']:.5f}, "
        f"tail = p{pct:.4g} {tail:.5f} (n={len(hook.seconds)})",
        f"   run_fleet(jobs=1) split: simulation "
        f"{simulate_s / run_fleet_s:.1%}, per-cell set-up "
        f"{setup_s / run_fleet_s:.1%}, bookkeeping "
        f"{bookkeeping_s / run_fleet_s:.1%} -> bound by "
        + ("simulation" if simulate_s > setup_s + bookkeeping_s
           else "set-up and bookkeeping"),
        f"   per cell outside run_fleet(jobs=1): pickle round trip "
        f"{metrics['campaign.pickle_s'] / n * 1e6:.0f} us "
        f"({pickled_bytes / n / 1024:.1f} KiB), ledger claim+done "
        f"{ledger_cell_s * 1e6:.0f} us, replaying cache get "
        f"{metrics['campaign.cache_get_s'] / n * 1e6:.0f} us; "
        f"SLO evaluation {metrics['obs.slo_s'] * 1e3:.2f} ms per fleet",
    ]
    # one profiled drive per policy: fleet cells are alike and tiny
    return PassResult(metrics, cells, specs[:len(suite.FLEET_POLICIES)],
                      lines)


def per_layer(workload: str, seed: int, work_dir: Path,
              out_dir: Path) -> dict:
    """Untraced reference repetitions, then the traced pass."""
    untraced = suite.repeat(workload, seed, 0.0, REFERENCE_REPS, work_dir)
    attempted, failed = untraced.attempted, untraced.failed
    problems = list(untraced.problems)
    # unscaled seconds on both sides, measured back to back: sampling the
    # host speed inside the traced pass would add its ticks to the spans
    untraced_s = suite.quartiles(untraced.raw_s)[1]
    reference = untraced.first.digests
    del untraced

    spans, layer = Spans(), LayerCounts()
    if workload == "fleet":
        traced = fleet_pass(seed, work_dir, spans, layer, reference)
    else:
        traced = drive_pass(workload, seed, spans, layer, reference)
    roots = [r for r in spans.records if r["parent"] is None]
    traced_s = sum(r["end_s"] - r["start_s"] for r in roots)
    metrics = {**traced.metrics, "trace.overhead": traced_s / untraced_s,
               **profile_shares(traced.profiled)}
    spans_path = out_dir / f"spans-{workload}-seed{seed}.json"
    spans.write(spans_path, workload=workload, seed=seed)

    attempted += len(traced.cells)
    failed += sum(1 for p in traced.cells.values() if p)
    problems += [f"traced {label}: {p}"
                 for label, found in traced.cells.items() for p in found]
    lines = [f"== {workload}  seed {seed}  traced pass, spans in "
             f"{spans_path.relative_to(out_dir.parent)}",
             f"   traced {traced_s:.3f} s / untraced median "
             f"{untraced_s:.3f} s (host seconds) = trace.overhead "
             f"{metrics['trace.overhead']:.3f}"]
    lines += traced.lines + layer.memo_lines()
    lines += [f"   FAILED {p}" for p in problems]
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "lines": lines,
            "memo": {name: tuple(v) for name, v in layer.memo.items()}}


def memo_audit(tables: Dict[str, Dict[str, Tuple[int, int]]]) -> List[str]:
    """Cross-workload memo audit: caches under 1 % hits on every workload
    are deletion candidates (reported only)."""
    workloads = list(tables)
    names = sorted({name for table in tables.values() for name in table})
    lines = ["== memo audit: hit rate (lookups) per workload"]
    for name in names:
        rates = []
        cells = []
        for workload in workloads:
            hits, lookups = tables[workload].get(name, (0, 0))
            rate = hits / lookups if lookups else 0.0
            rates.append(rate)
            cells.append(f"{workload} {rate:7.2%} ({lookups})")
        verdict = ("  -> deletion candidate"
                   if all(r < AUDIT_HIT_RATE for r in rates) else "")
        lines.append(f"   {name:<26s} " + "  ".join(cells) + verdict)
    return lines
