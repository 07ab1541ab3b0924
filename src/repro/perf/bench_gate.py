"""Pinned benchmark suite and regression gate for the hot-path layer.

The micro benchmarks time each optimization against its *own reference
path on the same inputs in the same process*, so the reported numbers are
speedup **ratios** — portable across machines, unlike absolute seconds:
the vectorized LDPC/sense kernels against the seed implementations
preserved in :mod:`repro.perf.kernels`, and the memoized reliability
sampler against itself under :func:`~repro.perf.cache.caches_disabled`.
End-to-end simulation speed is held as absolute numbers by the
repository benchmark (``perfbench/``, metric ``pages_per_s``), not by
this gate.

Timing is interleaved best-of-k: each repetition times the optimized and
the reference side back to back and the ratio uses the per-side minima,
which cancels slow drift of the host machine.

``record`` writes a results file (``BENCH_baseline.json`` when run with
``--baseline``, else ``BENCH_current.json``); ``check`` re-runs the suite
and fails (exit 1) if any benchmark's speedup dropped more than
``tolerance`` below the committed baseline's, or below the 2.0x micro
floor (tolerance-relaxed).

The suite also carries a metrics-overhead guard (kind ``overhead``): the
pinned fig.-17 cell run fully metered (fleet rollup + SLO evaluation,
the per-cell cost of a campaign with ``--dashboard``) must stay within
5% of the unmetered run — a tolerance-exempt hard cap, so the
observability plane stays cheap by construction.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..campaign.spec import RunSpec, build_trace, execute
from ..config import LdpcCodeConfig
from ..ldpc.syndrome import (
    pruned_syndrome_weight,
    rearrange_codeword,
    restore_codeword,
)
from ..ldpc.qc_matrix import QcLdpcCode
from ..nand.vth import PageType, TlcVthModel
from ..ssd.reliability import PageReliabilitySampler
from . import kernels
from .cache import caches_disabled

SCHEMA_VERSION = 1
DEFAULT_TOLERANCE = 0.15
MICRO_FLOOR = 2.0
#: The metrics plane must stay passive in cost as well as in behaviour: a
#: fully metered cell (fleet rollup and SLO evaluation; the snapshot
#: recorder stays off) may run at most 5% slower than the unmetered run,
#: i.e. its "speedup" ratio (unmetered / metered) must stay above 1/1.05.
#: This floor is exempt from ``tolerance`` — relaxing an overhead cap with
#: the same knob that relaxes optimization floors would quietly licence
#: slow metrics.
OVERHEAD_FLOOR = 1.0 / 1.05
#: The baseline-relative check only demands up to this multiple of the
#: kind's floor.  Far above the floor, run-to-run noise scales with the
#: ratio itself (a 30x memo-cache ratio swings several x between runs),
#: so gating linearly on it would flake; near the floor — where a
#: regression actually threatens the contract — the baseline binds fully.
BASELINE_CAP_FACTOR = 4.0

#: The metrics-overhead guard's pinned cell: the grid's most read-heavy
#: workload at the worn operating point, under the paper's RiF policy.
OVERHEAD_CELL: Tuple[str, str, float] = ("Ali124", "RiFSSD", 2000.0)
PIN_SEED = 7


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's timings (seconds, per-side best-of-k) and ratio."""

    name: str
    kind: str  # "micro" | "overhead"
    optimized_s: float
    reference_s: float

    @property
    def speedup(self) -> float:
        return self.reference_s / self.optimized_s

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind,
                "optimized_s": self.optimized_s,
                "reference_s": self.reference_s,
                "speedup": self.speedup}

    @property
    def floor(self) -> float:
        return OVERHEAD_FLOOR if self.kind == "overhead" else MICRO_FLOOR


def _interleaved_best(
    optimized: Callable[[], None],
    reference: Callable[[], None],
    reps: int,
) -> Tuple[float, float]:
    """Best-of-``reps`` wall time per side, alternating sides every rep."""
    optimized()  # warm both paths (imports, allocator, caches)
    reference()
    t_opt: List[float] = []
    t_ref: List[float] = []
    for _ in range(reps):
        t0 = time.perf_counter()
        optimized()
        t_opt.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        reference()
        t_ref.append(time.perf_counter() - t0)
    return min(t_opt), min(t_ref)


# --- micro benchmarks -------------------------------------------------------------


def _bench_syndrome_pruned(reps: int) -> BenchResult:
    code = QcLdpcCode(LdpcCodeConfig(circulant_size=512))
    rng = np.random.default_rng(PIN_SEED)
    words = [rng.integers(0, 2, size=code.n, dtype=np.uint8)
             for _ in range(16)]

    def optimized() -> None:
        for w in words:
            pruned_syndrome_weight(code, w)

    def reference() -> None:
        for w in words:
            kernels.pruned_syndrome_weight_reference(code, w)

    opt, ref = _interleaved_best(optimized, reference, reps)
    return BenchResult("syndrome_pruned", "micro", opt, ref)


def _bench_syndrome_rearrange(reps: int) -> BenchResult:
    code = QcLdpcCode(LdpcCodeConfig(circulant_size=512))
    rng = np.random.default_rng(PIN_SEED)
    words = [rng.integers(0, 2, size=code.n, dtype=np.uint8)
             for _ in range(16)]

    def optimized() -> None:
        for w in words:
            restore_codeword(code, rearrange_codeword(code, w))

    def reference() -> None:
        for w in words:
            kernels.restore_codeword_reference(
                code, kernels.rearrange_codeword_reference(code, w))

    opt, ref = _interleaved_best(optimized, reference, reps)
    return BenchResult("syndrome_rearrange", "micro", opt, ref)


def _bench_sense_batch(reps: int) -> BenchResult:
    model = TlcVthModel()
    _states, vth = model.sample_cells(4096, pe_cycles=1000.0,
                                      retention_months=6.0, seed=PIN_SEED)
    ladder = [None] + [{3: -0.05 * k, 7: -0.05 * k} for k in range(1, 8)]

    def optimized() -> None:
        model.sense_many(vth, PageType.LSB, ladder)

    def reference() -> None:
        for offsets in ladder:
            kernels.sense_reference(model, vth, PageType.LSB, offsets)

    opt, ref = _interleaved_best(optimized, reference, reps)
    return BenchResult("sense_batch", "micro", opt, ref)


def _steady_state_queries(sampler) -> Callable[[], None]:
    """A steady-state query mix: a fixed working set of pages re-read with
    growing read counts — the shape of the simulator's demand."""
    pages = [((0, d, p, b), pg, 11.25 + 0.5 * b)
             for d in range(2) for p in range(2)
             for b in range(8) for pg in range(4)]

    def run() -> None:
        for rc in range(12):
            for block_key, page, age in pages:
                sampler.rber(block_key, page, age, read_count=rc)
                sampler.cold_age_days(page + 64 * block_key[3])

    return run


def _bench_reliability_cache(reps: int) -> BenchResult:
    sampler = PageReliabilitySampler(pe_cycles=2000.0, seed=PIN_SEED)
    queries = _steady_state_queries(sampler)

    def reference() -> None:
        with caches_disabled():
            queries()

    opt, ref = _interleaved_best(queries, reference, reps)
    return BenchResult("reliability_cache", "micro", opt, ref)


# --- metrics-overhead guard --------------------------------------------------------


#: request count for the overhead guard — a short run so ~24 alternating
#: samples fit in a few seconds, which is what pins per-side floors
#: tightly enough to resolve a 5% cap on a noisy shared host.
OVERHEAD_N_REQUESTS = 3000


def _bench_metrics_overhead(reps: int) -> BenchResult:
    """Metered vs unmetered run of the pinned fig.-17 cell.

    "Metered" is everything the fleet observability plane adds to a cell
    in a campaign with rollups and a dashboard: folding the result into a
    :class:`~repro.obs.registry.FleetAggregator` and a full SLO evaluation
    of the rollup — sums of counters the simulation maintains anyway.
    The ratio (unmetered / metered) is gated against
    :data:`OVERHEAD_FLOOR`.  Both sides run the same engine on the same
    prebuilt trace, so the ratio isolates the metering cost.  (The per-window
    :class:`~repro.obs.snapshots.SnapshotRecorder` is *not* part of the
    fleet default path — it is opt-in burn-rate analysis.)

    A 5% cap is far below the rep-to-rep scatter of a shared CI host
    (±10% and more from scheduler contention), so this bench takes many
    more samples than the micro benches — short runs, strictly
    alternating — and compares per-side *minima*: contention noise is
    strictly additive, so the minimum over enough reps converges on each
    side's true floor, while a real systematic overhead inflates every
    metered sample and survives into the minimum.
    """
    from ..obs.registry import FleetAggregator
    from ..obs.slo import default_slos, evaluate_fleet

    workload, policy, pe = OVERHEAD_CELL
    spec = RunSpec(workload=workload, policy=policy, pe_cycles=pe,
                   n_requests=OVERHEAD_N_REQUESTS, seed=PIN_SEED)
    trace = build_trace(spec)
    slos = default_slos()

    def metered() -> None:
        result = execute(spec, trace)
        fleet = FleetAggregator()
        fleet.observe(spec, result)
        evaluate_fleet(fleet, slos)

    def unmetered() -> None:
        execute(spec, trace)

    metered()  # warm both paths
    unmetered()
    # Keep the collector out of the timed regions: the metered side
    # allocates more (fleet, SLO reports), so with gc enabled
    # its allocations preferentially *trigger* collections of whatever
    # garbage the rest of the suite left behind, and the pause lands in
    # the metered sample — a systematic bias, not an overhead.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    metered_s = unmetered_s = float("inf")
    try:
        for rep in range(max(6 * reps, 24)):
            first, second = ((metered, unmetered) if rep % 2 == 0
                             else (unmetered, metered))
            t0 = time.perf_counter()
            first()
            t1 = time.perf_counter()
            second()
            t2 = time.perf_counter()
            m, u = ((t1 - t0, t2 - t1) if first is metered
                    else (t2 - t1, t1 - t0))
            metered_s = min(metered_s, m)
            unmetered_s = min(unmetered_s, u)
            gc.collect()  # untimed, between pairs
    finally:
        if gc_was_enabled:
            gc.enable()
    return BenchResult("metrics_overhead", "overhead",
                       optimized_s=metered_s, reference_s=unmetered_s)


# --- suite -------------------------------------------------------------------------


def run_suite(reps: int = 5, e2e_reps: int = 3,
              include_e2e: bool = True,
              progress: Optional[Callable[[str], None]] = None) -> List[BenchResult]:
    """Run every pinned benchmark and return the results in suite order."""
    micro = [
        _bench_syndrome_pruned,
        _bench_syndrome_rearrange,
        _bench_sense_batch,
        _bench_reliability_cache,
    ]
    results: List[BenchResult] = []
    for bench in micro:
        result = bench(reps)
        if progress:
            progress(f"{result.name}: {result.speedup:.2f}x")
        results.append(result)
    if include_e2e:
        result = _bench_metrics_overhead(e2e_reps)
        if progress:
            progress(f"{result.name}: {result.speedup:.2f}x")
        results.append(result)
    return results


def results_payload(results: List[BenchResult]) -> Dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "pinned": {
            "overhead_cell": list(OVERHEAD_CELL),
            "overhead_n_requests": OVERHEAD_N_REQUESTS,
            "seed": PIN_SEED,
        },
        "benchmarks": {r.name: r.to_dict() for r in results},
    }


def write_results(results: List[BenchResult], path: Path) -> None:
    path.write_text(json.dumps(results_payload(results), indent=2,
                               sort_keys=True) + "\n")


def load_results(path: Path) -> Dict[str, Dict[str, Any]]:
    payload = json.loads(path.read_text())
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported bench schema in {path}: "
                         f"{payload.get('schema')!r}")
    return payload["benchmarks"]


@dataclass(frozen=True)
class GateVerdict:
    """One benchmark's gate evaluation."""

    name: str
    speedup: float
    required: float
    passed: bool
    detail: str


def evaluate_gate(
    current: List[BenchResult],
    baseline: Optional[Dict[str, Dict[str, Any]]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[GateVerdict]:
    """Compare a fresh run against the committed baseline.

    A benchmark passes when its speedup ratio is within ``tolerance`` of
    both its kind's absolute floor and the baseline's recorded ratio,
    with the baseline's contribution capped at ``BASELINE_CAP_FACTOR``
    times the floor (see its docstring).  A missing baseline entry checks
    the floor only, so adding a benchmark does not require re-recording
    the baseline in the same change.
    """
    verdicts: List[GateVerdict] = []
    for result in current:
        if result.kind == "overhead":
            # tolerance-exempt hard cap (see OVERHEAD_FLOOR)
            verdicts.append(GateVerdict(
                name=result.name,
                speedup=result.speedup,
                required=result.floor,
                passed=result.speedup >= result.floor,
                detail="overhead cap 1.05x",
            ))
            continue
        required = result.floor * (1.0 - tolerance)
        detail = f"floor {result.floor:.2f}x"
        if baseline and result.name in baseline:
            base_ratio = float(baseline[result.name]["speedup"])
            from_base = min(base_ratio, result.floor * BASELINE_CAP_FACTOR) \
                * (1.0 - tolerance)
            if from_base > required:
                required = from_base
                detail = f"baseline {base_ratio:.2f}x"
        verdicts.append(GateVerdict(
            name=result.name,
            speedup=result.speedup,
            required=required,
            passed=result.speedup >= required,
            detail=detail,
        ))
    return verdicts


def format_verdicts(verdicts: List[GateVerdict]) -> str:
    lines = []
    for v in verdicts:
        status = "ok  " if v.passed else "FAIL"
        lines.append(f"  {status} {v.name:<28s} {v.speedup:6.2f}x "
                     f"(needs >= {v.required:.2f}x, {v.detail})")
    return "\n".join(lines)
