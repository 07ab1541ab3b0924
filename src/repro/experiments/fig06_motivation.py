"""Fig. 6 — the motivation experiment: SSDone vs SSDzero I/O bandwidth.

Even an *ideal* reactive read-retry solution (NRR = 1) loses substantial
bandwidth to doomed transfers and failed decodes.  The paper reports average
degradations of 19.4% / 34.9% / 50.4% at 0K / 1K / 2K P/E cycles over the
four read-intensive workloads Ali121, Ali124, Sys0, Sys1.
"""

from __future__ import annotations

from typing import Optional

from .common import PE_POINTS, geomean, run_grid
from .registry import ExperimentResult, register

WORKLOADS = ("Ali121", "Ali124", "Sys0", "Sys1")


@register("fig6", "I/O bandwidth of SSDone vs SSDzero")
def run(scale: str = "small", seed: int = 7, jobs: int = 1,
        cache_dir: Optional[str] = None, progress=None,
        ledger_dir: Optional[str] = None) -> ExperimentResult:
    results = run_grid(WORKLOADS, ("SSDzero", "SSDone"), PE_POINTS, scale,
                       seed, jobs=jobs, cache_dir=cache_dir, progress=progress,
                       ledger_dir=ledger_dir)
    rows = []
    headline = {}
    for pe in PE_POINTS:
        drops = []
        for workload in WORKLOADS:
            zero = results[(workload, pe, "SSDzero")].io_bandwidth_mb_s
            one = results[(workload, pe, "SSDone")].io_bandwidth_mb_s
            rows.append(
                {
                    "pe_cycles": pe,
                    "workload": workload,
                    "SSDzero_mb_s": zero,
                    "SSDone_mb_s": one,
                    "degradation": 1.0 - one / zero,
                }
            )
            drops.append(one / zero)
        headline[f"avg_degradation_pe{int(pe)}"] = 1.0 - geomean(drops)
    return ExperimentResult(
        experiment_id="fig6",
        title="Ideal reactive retry still degrades bandwidth "
              "(paper: 19.4/34.9/50.4% at 0K/1K/2K)",
        rows=rows,
        headline=headline,
    )
