"""Drive-population generator: thousands of heterogeneous drives, seeded.

The paper evaluates RiF on one drive; datacenter tail latency emerges
from a *fleet* of drives that differ in wear, data age, workload, and
fault exposure.  :class:`FleetSpec` describes such a population
declaratively — like :class:`~repro.campaign.spec.RunSpec`, it is a
frozen value with a stable content hash, so two hosts generating the
same fleet spec get bit-identical populations — and
:func:`generate_population` expands it into per-drive
:class:`DriveSpec` values:

* **P/E cycles** and **retention age** are drawn uniformly from the
  spec's ranges (Cai et al.: the two dominant axes of retry-rate
  divergence); retention age maps onto the reliability model's
  ``refresh_days`` knob, wear onto ``pe_cycles``.
* **workload** is drawn from a weighted mix; the **policy** is assigned
  round-robin so every policy sees the same number of drives (paired
  fleet comparisons, like the paper's paired traces).
* an optional **fault plan** (transient sense errors + a latency-spiking
  channel, deterministic schedules) afflicts a ``fault_rate`` fraction
  of drives.
* every drive gets a unique simulation **seed** derived from its id.

Per-drive draws come from :func:`repro.rng.spawn` child streams keyed by
``drive_id``, so drive *k*'s parameters are a pure function of
``(fleet seed, k)`` — independent of the population size or of any other
drive.  Growing a fleet from 100 to 1000 drives keeps the first 100
drives identical.

A :class:`DriveSpec` converts to a plain campaign
:class:`~repro.campaign.spec.RunSpec` via :meth:`DriveSpec.to_run_spec`,
which is what makes the whole fleet substrate inherit the campaign
layer's properties for free: content-addressed caching, bit-identical
parallel execution, ledger resume.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import List, Optional, Tuple

from ..campaign.spec import RunSpec, check_sizing
from ..errors import ConfigError
from ..faults import FaultPlan, FaultSpec
from ..rng import make_rng, spawn
from ..ssd.retry_policies import check_policy
from ..workloads import WORKLOADS

#: Bump when the meaning of any FleetSpec field (or the sampling
#: procedure) changes: the version is mixed into the content hash, so a
#: fleet hash always names one exact population.
FLEET_SCHEMA_VERSION = 1

#: Default workload mix: the two most read-heavy AliCloud traces plus a
#: Systor trace (fleet reads are what retry policies differentiate on).
DEFAULT_WORKLOAD_MIX: Tuple[Tuple[str, float], ...] = (
    ("Ali124", 0.4), ("Ali121", 0.3), ("Sys1", 0.3),
)


def _freeze_mix(value) -> Tuple[Tuple[str, float], ...]:
    """Canonicalise a workload mix into ``((name, weight), ...)``."""
    if isinstance(value, dict):
        items = list(value.items())
    else:
        items = [tuple(item) for item in value]
    out = []
    for name, weight in items:
        weight = float(weight)
        if weight <= 0:
            raise ConfigError(
                f"workload mix weight for {name!r} must be > 0, got {weight}")
        if name not in WORKLOADS:
            raise ConfigError(
                f"unknown workload {name!r} in fleet mix; "
                f"known: {sorted(WORKLOADS)}")
        out.append((str(name), weight))
    if not out:
        raise ConfigError("fleet workload mix must name at least one workload")
    return tuple(out)


def _check_range(name: str, value, minimum: float = 0.0) -> Tuple[float, float]:
    lo, hi = (float(value[0]), float(value[1]))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{name} bounds must be finite, got ({lo}, {hi})")
    if lo < minimum or hi < lo:
        raise ConfigError(
            f"{name} must satisfy {minimum:g} <= lo <= hi, got ({lo}, {hi})")
    return (lo, hi)


@dataclass(frozen=True)
class FleetSpec:
    """One drive population, fully declarative and content-hashed."""

    n_drives: int
    seed: int = 7
    scale: str = "small"
    #: Policies assigned round-robin across drives.
    policies: Tuple[str, ...] = ("RiFSSD",)
    #: Weighted workload mix; weights need not sum to 1.
    workload_mix: Tuple[Tuple[str, float], ...] = DEFAULT_WORKLOAD_MIX
    #: Uniform per-drive P/E cycle range (wear heterogeneity).
    pe_cycles_range: Tuple[float, float] = (0.0, 3000.0)
    #: Uniform per-drive retention age (days since refresh) — maps onto
    #: the reliability model's ``refresh_days``.
    retention_days_range: Tuple[float, float] = (5.0, 90.0)
    #: Optional uniform operating-temperature range (°C).
    temp_c_range: Optional[Tuple[float, float]] = None
    #: Fraction of drives afflicted with a deterministic fault plan.
    fault_rate: float = 0.0
    #: ``None`` -> the scale's sizing (see :class:`RunSpec`); fleets
    #: usually shrink these so thousands of drives stay tractable.
    n_requests: Optional[int] = None
    user_pages: Optional[int] = None
    queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_drives < 1:
            raise ConfigError(f"n_drives must be >= 1, got {self.n_drives}")
        if not self.policies:
            raise ConfigError("a fleet needs at least one policy")
        object.__setattr__(self, "policies",
                           tuple(str(p) for p in self.policies))
        for policy in self.policies:
            check_policy(policy)
        object.__setattr__(self, "workload_mix",
                           _freeze_mix(self.workload_mix))
        object.__setattr__(self, "pe_cycles_range",
                           _check_range("pe_cycles_range",
                                        self.pe_cycles_range))
        object.__setattr__(self, "retention_days_range",
                           _check_range("retention_days_range",
                                        self.retention_days_range))
        if self.temp_c_range is not None:
            object.__setattr__(
                self, "temp_c_range",
                _check_range("temp_c_range", self.temp_c_range,
                             minimum=-273.0))
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ConfigError(
                f"fault_rate must be in [0, 1], got {self.fault_rate}")
        check_sizing(self)

    # --- serialisation & identity ----------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-compatible, canonical field order)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "workload_mix":
                value = [list(item) for item in value]
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSpec":
        if not isinstance(data, dict):
            raise ConfigError(f"a FleetSpec is a JSON object, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown FleetSpec fields {sorted(unknown)}")
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name not in data]
        if missing:
            raise ConfigError(f"missing FleetSpec fields {missing}")
        return cls(**data)

    def content_hash(self) -> str:
        """Stable hex digest naming this exact population."""
        payload = json.dumps(
            {"schema": FLEET_SCHEMA_VERSION, "fleet": self.to_dict()},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def label(self) -> str:
        return (f"fleet-{self.n_drives}x{len(self.policies)}pol"
                f"/{self.scale}/seed{self.seed}")


@dataclass(frozen=True)
class DriveSpec:
    """One drive of a fleet: its heterogeneity knobs plus sizing.

    Self-contained on purpose — a shard of drives can be serialised,
    shipped, and turned into :class:`RunSpec` cells without the parent
    :class:`FleetSpec` in hand.
    """

    drive_id: int
    workload: str
    policy: str
    pe_cycles: float
    retention_days: float
    seed: int
    scale: str = "small"
    temp_c: Optional[float] = None
    fault_plan: Optional[FaultPlan] = None
    n_requests: Optional[int] = None
    user_pages: Optional[int] = None
    queue_depth: Optional[int] = None

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "fault_plan":
                if value is None:
                    continue
                value = value.to_dict()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DriveSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown DriveSpec fields {sorted(unknown)}")
        data = dict(data)
        plan = data.get("fault_plan")
        if plan is not None and not isinstance(plan, FaultPlan):
            data["fault_plan"] = FaultPlan.from_dict(dict(plan))
        return cls(**data)

    def to_run_spec(self) -> RunSpec:
        """The campaign cell simulating this drive.

        Retention age maps onto the reliability model's ``refresh_days``
        (steady-state data age), wear onto ``pe_cycles``; everything else
        passes straight through.  Because the drive seed is unique, two
        drives never collapse into one campaign cell.
        """
        return RunSpec(
            workload=self.workload,
            policy=self.policy,
            pe_cycles=self.pe_cycles,
            seed=self.seed,
            scale=self.scale,
            n_requests=self.n_requests,
            user_pages=self.user_pages,
            queue_depth=self.queue_depth,
            operating_temp_c=self.temp_c,
            config_overrides={
                "reliability": {"refresh_days": self.retention_days},
            },
            fault_plan=self.fault_plan,
        )


def _drive_fault_plan(rng) -> FaultPlan:
    """A deterministic per-drive affliction: recurring transient sense
    errors plus a latency-spiking channel, with drawn schedules."""
    sense_period = 29 + int(rng.integers(0, 64))
    sense_count = 2 + int(rng.integers(0, 6))
    spike_period = 41 + int(rng.integers(0, 64))
    spike_count = 2 + int(rng.integers(0, 6))
    spike_magnitude = 1.5 + float(rng.random())
    return FaultPlan(faults=(
        FaultSpec(kind="transient_sense", period=sense_period,
                  count=sense_count),
        FaultSpec(kind="latency_spike", channel=0, period=spike_period,
                  count=spike_count, magnitude=spike_magnitude),
    ))


def generate_drive(fleet: FleetSpec, drive_id: int) -> DriveSpec:
    """Drive ``drive_id`` of the population — a pure function of
    ``(fleet, drive_id)``; see the module docstring."""
    if not 0 <= drive_id < fleet.n_drives:
        raise ConfigError(
            f"drive_id must be in [0, {fleet.n_drives}), got {drive_id}")
    rng = spawn(make_rng(fleet.seed), drive_id)

    # fixed draw order — changing it is a schema change
    names = [name for name, _w in fleet.workload_mix]
    weights = [w for _n, w in fleet.workload_mix]
    total = sum(weights)
    pick = float(rng.random()) * total
    workload = names[-1]
    acc = 0.0
    for name, weight in zip(names, weights):
        acc += weight
        if pick < acc:
            workload = name
            break

    lo, hi = fleet.pe_cycles_range
    pe_cycles = lo + (hi - lo) * float(rng.random())
    lo, hi = fleet.retention_days_range
    retention_days = lo + (hi - lo) * float(rng.random())
    temp_c = None
    if fleet.temp_c_range is not None:
        lo, hi = fleet.temp_c_range
        temp_c = lo + (hi - lo) * float(rng.random())
    fault_plan = None
    if fleet.fault_rate > 0.0 and float(rng.random()) < fleet.fault_rate:
        fault_plan = _drive_fault_plan(rng)
    # unique per drive by construction: the id occupies the high bits
    seed = (drive_id << 31) | int(rng.integers(0, 2**31))

    return DriveSpec(
        drive_id=drive_id,
        workload=workload,
        policy=fleet.policies[drive_id % len(fleet.policies)],
        pe_cycles=pe_cycles,
        retention_days=retention_days,
        seed=seed,
        scale=fleet.scale,
        temp_c=temp_c,
        fault_plan=fault_plan,
        n_requests=fleet.n_requests,
        user_pages=fleet.user_pages,
        queue_depth=fleet.queue_depth,
    )


def generate_population(fleet: FleetSpec) -> List[DriveSpec]:
    """The whole population, in drive-id order."""
    return [generate_drive(fleet, drive_id)
            for drive_id in range(fleet.n_drives)]
