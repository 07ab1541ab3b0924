"""Fig. 17 — the headline result: normalized I/O bandwidth of all schemes.

Eight workloads x three wear levels x {SENC, SWR, SWR+, RPSSD, RiFSSD,
SSDzero}, normalized to SENC.  The paper's geometric means for RiFSSD over
SENC: +23.8% (0K), +47.4% (1K), +72.1% (2K); over SWR +61.2% and over SWR+
+50.0% at 2K; and RiFSSD within 1.8% of the ideal SSDzero.
"""

from __future__ import annotations

from typing import Optional

from ..workloads import workload_names
from .common import FIG17_POLICIES, PE_POINTS, geomean, run_grid
from .registry import ExperimentResult, register


@register("fig17", "Normalized I/O bandwidth, all workloads and schemes")
def run(scale: str = "small", seed: int = 7, jobs: int = 1,
        cache_dir: Optional[str] = None, progress=None,
        ledger_dir: Optional[str] = None) -> ExperimentResult:
    workloads = workload_names()
    results = run_grid(workloads, FIG17_POLICIES, PE_POINTS, scale, seed,
                       jobs=jobs, cache_dir=cache_dir, progress=progress,
                       ledger_dir=ledger_dir)
    rows = []
    headline = {}
    for pe in PE_POINTS:
        ratios = {policy: [] for policy in FIG17_POLICIES}
        for workload in workloads:
            senc = results[(workload, pe, "SENC")].io_bandwidth_mb_s
            row = {"pe_cycles": pe, "workload": workload}
            for policy in FIG17_POLICIES:
                bw = results[(workload, pe, policy)].io_bandwidth_mb_s
                row[policy] = bw / senc
                ratios[policy].append(bw / senc)
            rows.append(row)
        gm_row = {"pe_cycles": pe, "workload": "geomean"}
        for policy in FIG17_POLICIES:
            gm_row[policy] = geomean(ratios[policy])
        rows.append(gm_row)
        headline[f"rif_vs_senc_pe{int(pe)}"] = gm_row["RiFSSD"] - 1.0
        headline[f"rif_vs_zero_gap_pe{int(pe)}"] = (
            1.0 - gm_row["RiFSSD"] / gm_row["SSDzero"]
        )
    # tail-latency companion to the bandwidth headline: geomean across
    # workloads of the RiF/SENC read-latency percentile ratio at 2K P/E,
    # expressed as a cut (positive = RiF's tail is shorter)
    for q, key in ((99.0, "p99"), (99.9, "p999")):
        ratios = []
        for workload in workloads:
            senc_q = results[(workload, 2000.0, "SENC")].metrics
            rif_q = results[(workload, 2000.0, "RiFSSD")].metrics
            ratios.append(rif_q.read_latency_percentile(q)
                          / senc_q.read_latency_percentile(q))
        headline[f"rif_vs_senc_{key}_cut_2k"] = 1.0 - geomean(ratios)
    return ExperimentResult(
        experiment_id="fig17",
        title="RiF vs state-of-the-art (paper: +23.8/47.4/72.1% over SENC; "
              "<=1.8% below SSDzero)",
        rows=rows,
        headline=headline,
        notes="all bandwidths normalized to SENC at the same (workload, P/E)",
    )
