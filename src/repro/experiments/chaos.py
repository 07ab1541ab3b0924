"""Chaos campaign — retry policies under deterministic fault injection.

Not a figure of the paper: a robustness experiment sweeping fault
intensity (``none`` / ``low`` / ``high``) across retry policies on a
read-heavy workload.  Every fault plan is seeded and RNG-free
(:mod:`repro.faults`), so the campaign composes with the result cache and
parallel execution like any other grid; the experiment reports how much
bandwidth and tail latency each policy gives up under faults, and how the
controller degraded (retries spent, blocks retired, reads absorbed in
degraded mode).
"""

from __future__ import annotations

from typing import Optional

from ..campaign import RunSpec, run_specs
from ..errors import ConfigError
from ..faults import FaultPlan, FaultSpec
from .registry import ExperimentResult, register

#: The configurations the chaos sweep compares (ideal / in-controller
#: retry / in-die retry / RiF).
CHAOS_POLICIES = ("SSDzero", "SWR", "SENC", "RiFSSD")

INTENSITIES = ("none", "low", "high")

CHAOS_WORKLOAD = "Ali124"  # 96% reads — maximal exposure to read faults


def chaos_plan(intensity: str) -> Optional[FaultPlan]:
    """The deterministic fault plan for one sweep intensity.

    Trigger schedules are pure functions of read index / sim time /
    address, so every policy at a given intensity faces the *same* fault
    sequence — the comparison is paired, exactly like the seeded traces.
    """
    if intensity == "none":
        return None
    if intensity == "low":
        return FaultPlan(faults=(
            FaultSpec(kind="transient_sense", period=97, count=6),
            FaultSpec(kind="latency_spike", channel=0, period=53, count=8,
                      magnitude=2.5),
            FaultSpec(kind="channel_corrupt", period=131, count=4),
        ))
    if intensity == "high":
        return FaultPlan(
            faults=(
                FaultSpec(kind="transient_sense", period=29, count=30,
                          magnitude=2),
                FaultSpec(kind="latency_spike", channel=1, period=23,
                          count=30, magnitude=3.0),
                FaultSpec(kind="channel_corrupt", period=61, count=10,
                          magnitude=2),
                FaultSpec(kind="grown_bad_block", block=1, start_read=50,
                          count=2),
                FaultSpec(kind="ecc_saturation", channel=0, start_us=150.0,
                          end_us=400.0, magnitude=0),
                FaultSpec(kind="die_offline", channel=1, die=3,
                          start_read=400),
            ),
            max_retries=4,
            retry_backoff_us=5.0,
            on_degraded="absorb",
        )
    raise ConfigError(
        f"unknown chaos intensity {intensity!r}; known: {INTENSITIES}"
    )


@register("chaos", "Retry policies under deterministic fault injection")
def run(scale: str = "small", seed: int = 7, jobs: int = 1,
        cache_dir: Optional[str] = None, progress=None,
        ledger_dir: Optional[str] = None) -> ExperimentResult:
    specs = {
        (intensity, policy): RunSpec(
            workload=CHAOS_WORKLOAD, policy=policy, pe_cycles=1000.0,
            seed=seed, scale=scale, fault_plan=chaos_plan(intensity),
        )
        for intensity in INTENSITIES
        for policy in CHAOS_POLICIES
    }
    results = run_specs(list(specs.values()), jobs=jobs, cache=cache_dir,
                        progress=progress, ledger_dir=ledger_dir)

    rows = []
    for intensity in INTENSITIES:
        for policy in CHAOS_POLICIES:
            result = results[specs[(intensity, policy)]]
            clean = results[specs[("none", policy)]]
            m = result.metrics
            rows.append({
                "intensity": intensity,
                "policy": policy,
                "bandwidth_mb_s": result.io_bandwidth_mb_s,
                "bw_vs_clean": result.io_bandwidth_mb_s
                / clean.io_bandwidth_mb_s,
                "p99_read_us": m.read_latency_percentile(99.0),
                "p999_read_us": m.read_latency_percentile(99.9),
                "faults_injected": m.faults_injected,
                "faults_absorbed": m.faults_absorbed,
                "fault_retries": m.fault_retries,
                "retired_blocks": m.retired_blocks,
                "degraded_reads": m.degraded_reads,
                "completed": result.completed,
            })

    high_rif = results[specs[("high", "RiFSSD")]]
    clean_rif = results[specs[("none", "RiFSSD")]]
    headline = {
        "rif_high_bw_retained": high_rif.io_bandwidth_mb_s
        / clean_rif.io_bandwidth_mb_s,
        "rif_high_degraded_reads": high_rif.metrics.degraded_reads,
    }
    return ExperimentResult(
        experiment_id="chaos",
        title="Graceful degradation under injected faults "
              f"({CHAOS_WORKLOAD}, P/E 1K)",
        rows=rows,
        headline=headline,
        notes="same deterministic fault schedule for every policy at a "
              "given intensity; bw_vs_clean normalizes to the same policy "
              "without faults",
    )
