"""Fleet execution service: thousands of drives as one campaign.

:func:`run_fleet` expands a :class:`~repro.fleet.population.FleetSpec`
into per-drive campaign cells and runs them as *one* campaign through
:func:`~repro.campaign.executor.run_specs`, which is what buys every
fleet property for free:

* **parallel execution** — ``jobs=N`` fans the drives over worker
  processes, at most ``jobs`` cells in flight at a time.
* **bit-identical rollups** — every drive outcome is folded into one
  :class:`~repro.obs.registry.FleetAggregator` in drive order after
  execution, so serial, ``jobs=N``, and resumed runs produce the same
  aggregate bit for bit (compare with :func:`comparable_rollup`, which
  masks the run-provenance ``cached`` counter).
* **durable resume** — ``ledger_dir`` journals the fleet like any other
  campaign: a SIGKILL mid-fleet resumes with finished drives replayed
  from the ledger cache and the final rollup unchanged.

The fleet is deliberately *one* campaign (one grid hash, one ledger),
not one campaign per shard: a ledger binds to its exact cell set, and
resume must see the whole fleet to reclaim stale claims correctly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..campaign import run_specs
from ..campaign.progress import CampaignStats, MultiProgress
from ..campaign.spec import RunSpec
from ..obs.registry import FleetAggregator
from .population import DriveSpec, FleetSpec, generate_population

#: FleetAggregator counters that record where results came from in *this*
#: run (fresh vs replayed) rather than what the fleet computed.  A
#: resumed fleet replays finished drives, so these differ from an
#: uninterrupted run even though the simulated aggregate is identical.
PROVENANCE_KEYS = ("cached",)


def comparable_rollup(rollup: dict) -> dict:
    """A fleet rollup with run-provenance counters masked.

    Two runs of the same fleet — serial vs parallel, fresh vs resumed —
    must agree bit-for-bit on this view; only how many cells happened to
    replay from cache/ledger (``cached``) may differ.
    """
    return {key: value for key, value in rollup.items()
            if key not in PROVENANCE_KEYS}


@dataclass
class FleetRunResult:
    """Everything one fleet run produced."""

    fleet: FleetSpec
    drives: List[DriveSpec]
    #: drive_id -> SimulationResult | CellFailure (drive order).
    outcomes: Dict[int, object]
    aggregator: FleetAggregator
    executed: int = 0
    replayed: int = 0
    specs: List[RunSpec] = field(default_factory=list)

    def rollup(self) -> dict:
        """The exact, mergeable fleet state (FleetAggregator.to_dict)."""
        return self.aggregator.to_dict()

    def comparable_rollup(self) -> dict:
        return comparable_rollup(self.rollup())

    def failures(self) -> Dict[int, object]:
        """Per-drive failures (drives whose cell crashed/errored)."""
        return {drive_id: outcome
                for drive_id, outcome in self.outcomes.items()
                if not hasattr(outcome, "metrics")}

    def to_payload(self) -> dict:
        """The JSON document ``python -m repro.fleet run`` writes."""
        return {
            "fleet": self.fleet.to_dict(),
            "fleet_hash": self.fleet.content_hash(),
            "drives": len(self.drives),
            "executed": self.executed,
            "replayed": self.replayed,
            "failed": sorted(self.failures()),
            "rollup": self.rollup(),
        }


def fleet_specs(fleet: FleetSpec) -> List[RunSpec]:
    """The fleet's campaign cells, in drive order."""
    return [drive.to_run_spec() for drive in generate_population(fleet)]


def run_fleet(
    fleet: FleetSpec,
    jobs: Optional[int] = 1,
    cache=None,
    progress=None,
    ledger_dir=None,
    lease_s: float = 900.0,
    campaign_faults=None,
    fleet_aggregator: Optional[FleetAggregator] = None,
    cell_timeout_s: Optional[float] = None,
    max_cell_retries: int = 1,
    on_failure: str = "record",
) -> FleetRunResult:
    """Simulate every drive of ``fleet`` as one campaign.

    Thin client of :func:`~repro.campaign.executor.run_specs` — all the
    campaign knobs mean exactly what they mean there.  Defaults differ in
    one place: ``on_failure="record"``, because one sick drive must not
    kill a thousand-drive fleet (its failure lands in
    :meth:`FleetRunResult.failures` and the rollup's ``failed`` counter
    instead).  ``fleet_aggregator`` lets a caller accumulate several
    fleets into one rollup; by default each run gets a fresh one.
    """
    drives = generate_population(fleet)
    specs = [drive.to_run_spec() for drive in drives]
    aggregator = (fleet_aggregator if fleet_aggregator is not None
                  else FleetAggregator())
    stats = CampaignStats()
    hooks = stats if progress is None else MultiProgress([stats, progress])
    results = run_specs(
        specs,
        jobs=jobs,
        cache=cache,
        progress=hooks,
        ledger_dir=ledger_dir,
        lease_s=lease_s,
        campaign_faults=campaign_faults,
        fleet=aggregator,
        cell_timeout_s=cell_timeout_s,
        max_cell_retries=max_cell_retries,
        on_failure=on_failure,
    )
    outcomes = {drive.drive_id: results[spec]
                for drive, spec in zip(drives, specs)}
    return FleetRunResult(
        fleet=fleet,
        drives=drives,
        outcomes=outcomes,
        aggregator=aggregator,
        executed=stats.executed,
        replayed=stats.cached,
        specs=specs,
    )
