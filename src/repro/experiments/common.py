"""Shared helpers for the SSD-level experiments (Figs. 6, 17, 18, 19).

The grid machinery itself lives in :mod:`repro.campaign`; this module keeps
the paper's evaluation constants and :func:`run_grid`, now a thin wrapper
over the campaign layer that adds parallel execution (``jobs``), an
optional on-disk result cache (``cache_dir``) and progress hooks without
changing a single number: serial, parallel, and cached runs all produce
identical results because every cell is rebuilt from its seeded spec.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

from ..campaign import SsdScale, grid_specs, run_specs, ssd_scale
from ..campaign.progress import ProgressHook
from ..errors import ConfigError
from ..ssd import SimulationResult

__all__ = [
    "PE_POINTS",
    "FIG17_POLICIES",
    "SsdScale",
    "ssd_scale",
    "run_grid",
    "geomean",
]

#: Wear points of the evaluation (SecVI-A).
PE_POINTS: Tuple[float, ...] = (0.0, 1000.0, 2000.0)

#: The configurations Fig. 17 compares (SSDone additionally for Fig. 6).
FIG17_POLICIES: Tuple[str, ...] = (
    "SENC", "SWR", "SWR+", "RPSSD", "RiFSSD", "SSDzero",
)


def run_grid(
    workloads: Sequence[str],
    policies: Sequence[str],
    pe_points: Sequence[float] = PE_POINTS,
    scale: str = "small",
    seed: int = 7,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    progress: Optional[ProgressHook] = None,
    ledger_dir: Optional[str] = None,
    fleet=None,
) -> Dict[Tuple[str, float, str], SimulationResult]:
    """Run every (workload, P/E, policy) combination once.

    Traces are generated deterministically per workload and replayed
    identically against every policy, and every simulator uses the same
    seed, so comparisons are paired.  ``jobs > 1`` executes cells on a
    process pool; ``cache_dir`` skips cells already computed by an earlier
    campaign — neither changes any result.  ``ledger_dir`` makes the
    campaign durable (:mod:`repro.campaign.durable`): a killed or
    interrupted grid resumes from its write-ahead ledger, and the resumed
    results are bit-identical to an uninterrupted run.  ``fleet`` (a
    :class:`repro.obs.registry.FleetAggregator`) observes every cell for
    fleet-level metric rollups — passive, so it changes nothing either.
    """
    specs = grid_specs(workloads, policies, pe_points, scale=scale, seed=seed)
    results = run_specs(specs, jobs=jobs, cache=cache_dir, progress=progress,
                        ledger_dir=ledger_dir, fleet=fleet)
    keyed: Dict[Tuple[str, float, str], SimulationResult] = {}
    for spec, (workload, pe, policy) in zip(
        specs,
        ((w, pe, p) for w in workloads for pe in pe_points for p in policies),
    ):
        keyed[(workload, pe, policy)] = results[spec]
    return keyed


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the aggregation of Fig. 17)."""
    if not values:
        raise ConfigError("geomean of nothing")
    if any(v <= 0 for v in values):
        raise ConfigError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
