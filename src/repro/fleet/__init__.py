"""Fleet-scale simulation service.

Turns the single-drive simulator into a datacenter-fleet study:

* :mod:`.population` — declarative, content-hashed drive populations
  (:class:`FleetSpec` -> heterogeneous :class:`DriveSpec` drives).
* :mod:`.service` — :func:`run_fleet` executes a whole population as one
  campaign, folding every drive into a
  :class:`~repro.obs.registry.FleetAggregator` rollup.
* :mod:`.__main__` — ``python -m repro.fleet`` CLI:
  ``generate`` / ``run`` / ``report`` / ``diff``.

The whole package is a thin client of the campaign layer — fleets
inherit content-addressed caching, bit-identical parallelism, and
ledger-backed crash resume from it rather than reimplementing any of it.
"""

from .population import (
    DEFAULT_WORKLOAD_MIX,
    FLEET_SCHEMA_VERSION,
    DriveSpec,
    FleetSpec,
    generate_drive,
    generate_population,
)
from .service import (
    FleetRunResult,
    comparable_rollup,
    fleet_specs,
    run_fleet,
)

__all__ = [
    "DEFAULT_WORKLOAD_MIX",
    "FLEET_SCHEMA_VERSION",
    "DriveSpec",
    "FleetSpec",
    "FleetRunResult",
    "comparable_rollup",
    "fleet_specs",
    "generate_drive",
    "generate_population",
    "run_fleet",
]
