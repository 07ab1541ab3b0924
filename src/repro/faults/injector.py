"""Runtime fault injection: deterministic trigger evaluation.

The :class:`FaultInjector` is instantiated from a :class:`~.plan.FaultPlan`
once per simulation and consulted from inside the simulator's normal event
flow.  It is deliberately RNG-free: every trigger is a pure function of the
global read index, the simulation clock, and the target block, so two runs
of the same (spec, plan, seed) fire exactly the same faults at exactly the
same points — the determinism guarantee the campaign cache relies on.

A read's target is named by its *block key*, the integer tuple
``(channel, die, plane, block)`` the read pipeline's route carries; a
spec's ``channel`` / ``die`` / ``plane`` / ``block`` fields match it
position by position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from .plan import FaultPlan, FaultSpec


@dataclass
class ReadFaultDecision:
    """Everything the simulator must inject into one page read."""

    offline: bool = False
    sense_failures: int = 0          # consecutive failing sense attempts
    latency_scale: float = 1.0       # multiplier on SENSE durations
    corrupt_transfers: int = 0       # consecutive corrupted transfers
    grown_bad_block: bool = False    # retire the target block
    fired: int = 0                   # fault firings folded into this read

    @property
    def any(self) -> bool:
        return self.fired > 0


@dataclass
class _FaultState:
    """Mutable firing bookkeeping for one plan entry."""

    spec: FaultSpec
    fired: int = 0
    retired_blocks: Set[Tuple[int, ...]] = field(default_factory=set)

    def exhausted(self) -> bool:
        return self.spec.count is not None and self.fired >= self.spec.count


class FaultInjector:
    """Evaluates a plan's trigger schedules against the live simulation."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._states = [_FaultState(spec) for spec in plan.simulator_faults()]
        self.reads_seen = 0

    # --- trigger evaluation -----------------------------------------------

    def _matches(self, spec: FaultSpec, block_key: tuple,
                 read_index: int, now_us: float) -> bool:
        if read_index < spec.start_read:
            return False
        if spec.end_read is not None and read_index > spec.end_read:
            return False
        if now_us < spec.start_us:
            return False
        if spec.end_us is not None and now_us > spec.end_us:
            return False
        return (_in_scope(spec, block_key)
                and (read_index - spec.start_read) % spec.period == 0)

    def on_page_read(self, block_key: tuple,
                     now_us: float) -> ReadFaultDecision:
        """Advance the read counter and fold every firing fault into one
        decision for this read of a page in ``block_key``."""
        read_index = self.reads_seen
        self.reads_seen += 1
        decision = ReadFaultDecision()
        for state in self._states:
            spec = state.spec
            if spec.kind == "ecc_saturation" or state.exhausted():
                continue
            if (spec.kind == "grown_bad_block"
                    and block_key in state.retired_blocks):
                continue
            if not self._matches(spec, block_key, read_index, now_us):
                continue
            decision.fired += 1
            if spec.kind == "transient_sense":
                state.fired += 1
                decision.sense_failures = max(
                    decision.sense_failures, max(1, int(spec.magnitude))
                )
            elif spec.kind == "latency_spike":
                state.fired += 1
                decision.latency_scale = max(
                    decision.latency_scale, max(1.0, spec.magnitude)
                )
            elif spec.kind == "channel_corrupt":
                state.fired += 1
                decision.corrupt_transfers = max(
                    decision.corrupt_transfers, max(1, int(spec.magnitude))
                )
            elif spec.kind == "die_offline":
                state.fired += 1
                decision.offline = True
            elif spec.kind == "grown_bad_block":
                # fired count advances only on successful retirement (see
                # note_block_retired) so a deferred relocation re-fires
                decision.grown_bad_block = True
        return decision

    def note_block_retired(self, block_key: tuple) -> None:
        """Record a successful grown-bad-block retirement so the fault does
        not re-fire on the block's reincarnation after erase."""
        for state in self._states:
            if state.spec.kind != "grown_bad_block":
                continue
            if _in_scope(state.spec, block_key):
                state.fired += 1
                state.retired_blocks.add(block_key)

    # --- time-window faults ----------------------------------------------

    def saturation_windows(self) -> List[FaultSpec]:
        """The ``ecc_saturation`` entries, for up-front sim scheduling."""
        return [s.spec for s in self._states
                if s.spec.kind == "ecc_saturation"]


def _in_scope(spec: FaultSpec, block_key: tuple) -> bool:
    """Whether every non-``None`` address field of ``spec`` matches the
    ``(channel, die, plane, block)`` key."""
    return ((spec.channel is None or spec.channel == block_key[0])
            and (spec.die is None or spec.die == block_key[1])
            and (spec.plane is None or spec.plane == block_key[2])
            and (spec.block is None or spec.block == block_key[3]))
