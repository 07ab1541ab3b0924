"""Fig. 18 — flash-channel usage breakdown for the read-heaviest workloads.

Channel time split into COR / UNCOR / ECCWAIT / IDLE (plus WRITE and GC,
which the paper folds into the small remainder).  The paper highlights that
SWR wastes 54.4% of channel bandwidth on UNCOR+ECCWAIT in Ali124 at 2K,
while RiFSSD's UNCOR share is 1.8% in Ali121 at 2K (vs 19.9% for RPSSD).
"""

from __future__ import annotations

from typing import Optional

from .common import PE_POINTS, run_grid
from .registry import ExperimentResult, register

WORKLOADS = ("Ali121", "Ali124")
POLICIES = ("SENC", "SWR", "SWR+", "RPSSD", "RiFSSD")


@register("fig18", "Channel usage breakdown (COR/UNCOR/ECCWAIT/IDLE)")
def run(scale: str = "small", seed: int = 7, jobs: int = 1,
        cache_dir: Optional[str] = None, progress=None,
        ledger_dir: Optional[str] = None) -> ExperimentResult:
    results = run_grid(WORKLOADS, POLICIES, PE_POINTS, scale, seed,
                       jobs=jobs, cache_dir=cache_dir, progress=progress,
                       ledger_dir=ledger_dir)
    rows = []
    headline = {}
    for workload in WORKLOADS:
        for pe in PE_POINTS:
            for policy in POLICIES:
                usage = results[(workload, pe, policy)].channel_usage
                frac = usage.fractions()
                rows.append(
                    {
                        "workload": workload,
                        "pe_cycles": pe,
                        "policy": policy,
                        "COR": frac["COR"],
                        "UNCOR": frac["UNCOR"],
                        "ECCWAIT": frac["ECCWAIT"],
                        "IDLE": frac["IDLE"] + frac["WRITE"] + frac["GC"],
                    }
                )
    for policy in ("SWR", "RPSSD", "RiFSSD"):
        usage = results[("Ali121", 2000.0, policy)].channel_usage
        headline[f"{policy}_uncor_ali121_2k"] = usage.fractions()["UNCOR"]
    return ExperimentResult(
        experiment_id="fig18",
        title="Where channel bandwidth goes "
              "(paper: RiF 1.8% vs RPSSD 19.9% UNCOR in Ali121@2K)",
        rows=rows,
        headline=headline,
        notes="WRITE and GC shares folded into IDLE, as in the paper's figure",
    )
