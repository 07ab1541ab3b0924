"""Figs. 7 and 8 — execution timeline of a 256-KiB read.

The paper's micro-example: one flash channel shared by two 4-plane dies, a
256-KiB host read split into four 64-KiB multi-plane commands A, B, C, D,
where A and B hit pages that need a read-retry.  Reported makespans:

* SSDzero (no retries):            252 us
* SSDone  (ideal reactive retry):  418 us (+166)
* RiF     (on-die early retry):    292 us (+40)

We reproduce the exact scenario with a scripted outcome model (pages of A
and B fail / are predicted to fail; C and D are clean) and report the
simulated makespans plus the full per-resource timeline.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..config import SSDConfig
from ..obs import write_chrome_trace
from ..ssd.ecc_model import ScriptedEccOutcomeModel
from ..ssd.simulator import SSDSimulator
from ..units import KIB
from ..workloads.trace import IORequest
from .registry import ExperimentResult, register

PAPER_MAKESPANS = {"SSDzero": 252.0, "SSDone": 418.0, "RiFSSD": 292.0}

#: pages 0..7 land on plane-row 0 of the two dies = commands A and B.
_FAILING_PAGES = 8
_TOTAL_PAGES = 16


def _timeline_config() -> SSDConfig:
    config = SSDConfig().scaled(
        channels=1, dies_per_channel=2, planes_per_die=4,
        blocks_per_plane=8, pages_per_block=8,
    )
    # per-page DMA matching the figure's 53 us per 64-KiB multi-plane group
    return replace(config, timings=replace(config.timings, t_dma=53.0 / 4.0))


def _scripted_model(policy: str) -> ScriptedEccOutcomeModel:
    ab_fail = [False] * _FAILING_PAGES + [True] * (_TOTAL_PAGES - _FAILING_PAGES)
    if policy == "RiFSSD":
        # RiF consumes the RP script per page; its decodes then all succeed
        return ScriptedEccOutcomeModel(rp_script=ab_fail)
    return ScriptedEccOutcomeModel(decode_script=ab_fail)


def run_timeline(policy: str):
    """Run the scenario for one policy; returns (makespan_us, tracer)."""
    ssd = SSDSimulator(
        _timeline_config(),
        policy=policy,
        pe_cycles=0.0,
        seed=1,
        outcome_model=_scripted_model(policy),
        tracing=True,
    )
    request = IORequest(timestamp_us=0.0, op="R", offset_bytes=0,
                        size_bytes=256 * KIB)
    done = {"flag": False}
    ssd.submit_request(request, on_complete=lambda: done.update(flag=True))
    ssd.run()
    if not done["flag"]:
        raise AssertionError("timeline request did not complete")
    return ssd.sim.now, ssd.tracer


@register("fig7", "Execution timeline of a 256-KiB read (SSDzero/SSDone/RiF)")
def run(scale: str = "small", seed: int = 0,
        trace_out: Optional[str] = None) -> ExperimentResult:
    """``trace_out=DIR`` additionally exports each policy's execution
    timeline as Chrome ``trace_event`` JSON (``DIR/trace_<policy>.json``,
    loadable in ``chrome://tracing``/Perfetto — the interactive Fig. 7)."""
    del scale, seed  # the scenario is fully deterministic and fixed-size
    rows = []
    makespans = {}
    for policy in ("SSDzero", "SSDone", "RiFSSD"):
        makespan, tracer = run_timeline(policy)
        makespans[policy] = makespan
        if trace_out is not None:
            write_chrome_trace(f"{trace_out}/trace_{policy}.json", tracer,
                               title=f"fig7 {policy}")
        by_resource = tracer.by_resource()
        channel_events = by_resource.get("ch0", [])
        rows.append(
            {
                "policy": policy,
                "makespan_us": makespan,
                "paper_us": PAPER_MAKESPANS[policy],
                "channel_transfers": len(channel_events),
                "uncor_transfers": sum(
                    1 for e in channel_events if e.tag == "UNCOR"
                ),
            }
        )
    return ExperimentResult(
        experiment_id="fig7",
        title="Timeline anatomy (paper: 252 / 418 / 292 us)",
        rows=rows,
        headline={
            "ssdone_penalty_us": makespans["SSDone"] - makespans["SSDzero"],
            "rif_penalty_us": makespans["RiFSSD"] - makespans["SSDzero"],
            "rif_saving_vs_ssdone_us":
                makespans["SSDone"] - makespans["RiFSSD"],
        },
        notes="2 dies x 4 planes on one channel; commands A and B retry",
    )
