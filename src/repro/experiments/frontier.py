"""Policy-frontier study — history-driven retry policies vs. the statics.

Not a figure of the paper: a (policy x workload x retention age) campaign
that extends Fig. 17 with the adaptive family of
:mod:`repro.ssd.adaptive`.  Retention age is swept through the refresh
period (``reliability.refresh_days`` — steady-state cold ages are uniform
in ``[0, R)``, so a longer period means older, harder pages), and each
cell reports the three frontier axes:

* **latency** — p50/p99 read latency and read bandwidth;
* **retry traffic** — retry rate, mean extra senses (~NRR), and doomed
  transfers that crossed the channel;
* **mispredict rate** — wrong starting-VREF predictions (adaptive
  policies) plus contradicted RP verdicts (RPSSD/RiFSSD), per page read.

The interesting regime is the long-retention corner: there the static
reactive schemes retry almost every cold read, while a history-driven
policy that starts the walk at the learned/predicted level decodes in one
attempt.  All cells are ordinary :class:`~repro.campaign.RunSpec` cells,
so the grid caches, parallelizes, and lands in ledgers like every other
campaign, and the learned state rides along in the result JSON
(``metrics.adaptive_state``).
"""

from __future__ import annotations

from typing import Optional

from ..campaign import RunSpec, run_specs
from .registry import ExperimentResult, register

#: Static reference points plus the three history-driven policies.
FRONTIER_POLICIES = ("SSDone", "SWR", "RiFSSD",
                     "OVCSSD", "OCASSD", "RVPSSD")

#: Read-heavy traces: the block-cache trace re-reads blocks constantly
#: (friendly to per-block caching), the syslog trace is a scan.
FRONTIER_WORKLOADS = ("Ali124", "Sys1")

#: Refresh periods (days) — the retention-age axis.  30 is the paper's
#: monthly refresh; 180 is the high-retention corner where nearly every
#: cold read of a worn drive exceeds the ECC capability.
RETENTION_DAYS = (30.0, 90.0, 180.0)

#: Pinned wear point: at 2K P/E the 180-day cells put ~98% of cold reads
#: past the capability — maximal separation between the policy families.
FRONTIER_PE = 2000.0


def _spec(workload: str, policy: str, refresh_days: float,
          scale: str, seed: int) -> RunSpec:
    return RunSpec(
        workload=workload, policy=policy, pe_cycles=FRONTIER_PE,
        seed=seed, scale=scale,
        config_overrides={"reliability": {"refresh_days": refresh_days}},
    )


@register("frontier", "Adaptive-policy frontier across retention ages")
def run(scale: str = "small", seed: int = 7, jobs: int = 1,
        cache_dir: Optional[str] = None, progress=None,
        ledger_dir: Optional[str] = None) -> ExperimentResult:
    specs = {
        (workload, days, policy): _spec(workload, policy, days, scale, seed)
        for workload in FRONTIER_WORKLOADS
        for days in RETENTION_DAYS
        for policy in FRONTIER_POLICIES
    }
    results = run_specs(list(specs.values()), jobs=jobs, cache=cache_dir,
                        progress=progress, ledger_dir=ledger_dir)

    rows = []
    for workload in FRONTIER_WORKLOADS:
        for days in RETENTION_DAYS:
            for policy in FRONTIER_POLICIES:
                result = results[specs[(workload, days, policy)]]
                m = result.metrics
                reads = m.page_reads or 1
                mispredicts = m.adaptive_mispredicts + m.rp_mispredicts
                rows.append({
                    "workload": workload,
                    "retention_days": days,
                    "policy": policy,
                    "read_bw_mb_s": m.read_bandwidth_mb_s(),
                    "p50_read_us": m.read_latency_percentile(50.0),
                    "p99_read_us": m.read_latency_percentile(99.0),
                    "retry_rate": m.retry_rate(),
                    "extra_senses": m.average_extra_senses(),
                    "uncor_transfers_per_read":
                        m.uncorrectable_transfers / reads,
                    "mispredict_rate": mispredicts / reads,
                    "adaptive_hit_rate": m.adaptive_hits / reads,
                })

    # headline: the high-retention corner — best adaptive p99 vs SSDone
    days = RETENTION_DAYS[-1]
    workload = FRONTIER_WORKLOADS[0]
    ssdone_p99 = results[specs[(workload, days, "SSDone")]] \
        .metrics.read_latency_percentile(99.0)
    adaptive_p99 = {
        policy: results[specs[(workload, days, policy)]]
        .metrics.read_latency_percentile(99.0)
        for policy in ("OVCSSD", "OCASSD", "RVPSSD")
    }
    best_policy = min(adaptive_p99, key=adaptive_p99.get)
    headline = {
        "best_adaptive_policy": best_policy,
        "best_adaptive_vs_ssdone_p99": adaptive_p99[best_policy] / ssdone_p99,
        "ssdone_p99_us": ssdone_p99,
        "best_adaptive_p99_us": adaptive_p99[best_policy],
    }
    return ExperimentResult(
        experiment_id="frontier",
        title="Policy frontier: latency vs. retry traffic vs. mispredicts "
              f"(P/E {FRONTIER_PE:g})",
        rows=rows,
        headline=headline,
        notes="retention_days is the refresh period R (cold ages uniform "
              "in [0, R)); mispredict_rate folds adaptive starting-VREF "
              "misses and RP verdict misses; headline compares the best "
              f"adaptive p99 to SSDone at R={RETENTION_DAYS[-1]:g} on "
              f"{FRONTIER_WORKLOADS[0]}",
    )
