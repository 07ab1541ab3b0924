"""Declarative fault plans: frozen, hashable, dict-round-trippable.

A :class:`FaultPlan` describes every discrete fault injected into one
simulation run plus the controller's mitigation policy, the same way a
:class:`~repro.campaign.spec.RunSpec` describes the run itself.  Plans are
frozen values with canonical dict forms, so they compose with the campaign
layer: a ``RunSpec`` carrying a plan hashes deterministically, caches by
content, and rebuilds bit-identically in a worker process.

Fault kinds (see the characterization literature — Cai et al. on retention
errors, Park et al. on read-retry — for the physical phenomena):

``transient_sense``
    A sense fails and must be re-issued; ``magnitude`` consecutive attempts
    fail before one succeeds.  Mitigated by bounded retry with backoff.
``latency_spike``
    A sense takes ``magnitude`` times its nominal duration (e.g. a die
    busy with background work).
``grown_bad_block``
    The targeted (plane, block) develops a grown defect: the controller
    retires it by relocating its live pages (reusing the FTL relocation
    path) and the triggering read pays one retry round.
``channel_corrupt``
    The transfer crosses the channel corrupted: the decode fails and the
    page is re-transferred (``magnitude`` consecutive corruptions).
``die_offline``
    The die stops responding; reads targeting it fail in degraded mode
    (absorbed into metrics or raised as
    :class:`~repro.errors.DegradedReadError`, per ``on_degraded``).
``ecc_saturation``
    The channel's decoder input buffer is held full for a sim-time window
    (``magnitude`` slots, 0 = all), producing ECCWAIT stalls.  Overlapping
    windows on one channel hold the sum of their slots (capped at the
    buffer), and each window's end releases only its own.
``worker_crash`` / ``worker_hang``
    Campaign-level chaos: the *worker process* executing this cell calls
    ``os._exit`` / sleeps for ``magnitude`` seconds.  Absorbed by the
    hardened executors, never by the simulator.
``campaign_kill`` / ``torn_cache_write``
    Runtime-level chaos consumed by the durable campaign layer
    (:mod:`repro.campaign.durable`), never by the simulator or a worker.
    Their triggers are evaluated against the *completed-cell index* of the
    campaign (``start_read`` / ``end_read`` / ``period`` / ``count``
    reinterpreted over that counter).  ``campaign_kill`` SIGKILLs the
    campaign process itself at the trigger point (``magnitude`` 0.0 kills
    after the cache write but *before* the ledger ``done`` record — the
    nastiest window; any other value kills after the record).
    ``torn_cache_write`` makes the matching cell's cache record land torn:
    only the first ``magnitude`` fraction of its bytes is appended to the
    log — simulating a crash mid-write that the checksum layer must detect
    and quarantine.  Pass these via ``run_specs(campaign_faults=
    ...)`` rather than on a :class:`~repro.campaign.spec.RunSpec`, so they
    never perturb cell content hashes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional, Tuple

from ..errors import FaultInjectionError

#: Fault kinds the simulator-side injector understands.
SIMULATOR_FAULT_KINDS = (
    "transient_sense",
    "latency_spike",
    "grown_bad_block",
    "channel_corrupt",
    "die_offline",
    "ecc_saturation",
)

#: Fault kinds absorbed by the campaign executors, not the simulator.
WORKER_FAULT_KINDS = ("worker_crash", "worker_hang")

#: Fault kinds consumed by the durable campaign runtime (triggered on the
#: completed-cell index): SIGKILL the campaign process / tear a cache write.
CAMPAIGN_FAULT_KINDS = ("campaign_kill", "torn_cache_write")

FAULT_KINDS = SIMULATOR_FAULT_KINDS + WORKER_FAULT_KINDS + CAMPAIGN_FAULT_KINDS

#: Degraded-read dispositions: ``absorb`` completes the read immediately
#: and counts it in ``SimMetrics.degraded_reads``; ``raise`` raises the
#: typed error out of the run.
ON_DEGRADED = ("absorb", "raise")


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault with a deterministic trigger schedule.

    The trigger fires on a page read when *all* of its conditions hold:

    * the global read index is in ``[start_read, end_read]``,
    * the simulation clock is in ``[start_us, end_us]``,
    * the read's physical address matches every non-``None`` field of
      ``channel`` / ``die`` / ``plane`` / ``block`` (the address
      predicate), and
    * ``(read_index - start_read) % period == 0``.

    The index conditions are :meth:`due_at`, which the campaign faults
    apply to the completed-cell index instead.  ``count`` bounds the
    total number of firings (``None`` = unbounded).  ``ecc_saturation``
    ignores the read-based conditions: it is scheduled purely on the
    ``[start_us, end_us]`` sim-time window.
    """

    kind: str
    channel: Optional[int] = None
    die: Optional[int] = None
    plane: Optional[int] = None
    block: Optional[int] = None
    start_read: int = 0
    end_read: Optional[int] = None
    start_us: float = 0.0
    end_us: Optional[float] = None
    period: int = 1
    count: Optional[int] = None
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.period < 1:
            raise FaultInjectionError(f"period must be >= 1, got {self.period}")
        if self.start_read < 0:
            raise FaultInjectionError("start_read must be >= 0")
        if self.end_read is not None and self.end_read < self.start_read:
            raise FaultInjectionError("end_read must be >= start_read")
        if self.start_us < 0:
            raise FaultInjectionError("start_us must be >= 0")
        if self.end_us is not None and self.end_us < self.start_us:
            raise FaultInjectionError("end_us must be >= start_us")
        if self.count is not None and self.count < 1:
            raise FaultInjectionError("count must be >= 1 (or None)")
        if self.magnitude < 0:
            raise FaultInjectionError("magnitude must be >= 0")
        if self.kind == "ecc_saturation" and self.end_us is None:
            raise FaultInjectionError(
                "ecc_saturation needs a bounded [start_us, end_us] window"
            )
        if self.kind == "die_offline" and (self.channel is None or self.die is None):
            raise FaultInjectionError(
                "die_offline needs an explicit (channel, die) target"
            )
        if self.kind == "grown_bad_block" and self.block is None:
            raise FaultInjectionError("grown_bad_block needs an explicit block")
        if self.kind == "torn_cache_write" and not self.magnitude < 1.0:
            raise FaultInjectionError(
                "torn_cache_write needs magnitude < 1.0 (the fraction of "
                "the entry's bytes that land on disk)"
            )

    def due_at(self, index: int) -> bool:
        """Whether the schedule fires at ``index``: ``start_read <= index
        <= end_read`` and ``(index - start_read) % period == 0``."""
        return (self.start_read <= index
                and (self.end_read is None or index <= self.end_read)
                and (index - self.start_read) % self.period == 0)

    def to_dict(self) -> dict:
        """JSON-compatible dict; :meth:`from_dict` round-trips exactly."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise FaultInjectionError(
                f"unknown FaultSpec fields {sorted(unknown)}"
            )
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """Every fault injected into one run, plus the mitigation policy.

    ``max_retries`` bounds the controller's retry of transient faults
    (sense failures and corrupt transfers); each retry waits
    ``retry_backoff_us * round`` before re-issuing.  A fault that outlasts
    the budget becomes a degraded read, dispatched per ``on_degraded``.
    """

    faults: Tuple[FaultSpec, ...] = ()
    max_retries: int = 4
    retry_backoff_us: float = 5.0
    on_degraded: str = "absorb"

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(
            f if isinstance(f, FaultSpec) else FaultSpec.from_dict(dict(f))
            for f in self.faults
        ))
        if self.max_retries < 0:
            raise FaultInjectionError("max_retries must be >= 0")
        if self.retry_backoff_us < 0:
            raise FaultInjectionError("retry_backoff_us must be >= 0")
        if self.on_degraded not in ON_DEGRADED:
            raise FaultInjectionError(
                f"on_degraded must be one of {ON_DEGRADED}, "
                f"got {self.on_degraded!r}"
            )

    # --- views ------------------------------------------------------------

    def simulator_faults(self) -> Tuple[FaultSpec, ...]:
        """The faults the SSD simulator injects itself."""
        return tuple(f for f in self.faults
                     if f.kind in SIMULATOR_FAULT_KINDS)

    def worker_faults(self) -> Tuple[FaultSpec, ...]:
        """Campaign-chaos directives executed at the worker level."""
        return tuple(f for f in self.faults if f.kind in WORKER_FAULT_KINDS)

    def campaign_faults(self) -> Tuple[FaultSpec, ...]:
        """Runtime-chaos directives consumed by the durable campaign layer."""
        return tuple(f for f in self.faults if f.kind in CAMPAIGN_FAULT_KINDS)

    # --- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible dict; :meth:`from_dict` round-trips exactly."""
        return {
            "faults": [f.to_dict() for f in self.faults],
            "max_retries": self.max_retries,
            "retry_backoff_us": self.retry_backoff_us,
            "on_degraded": self.on_degraded,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise FaultInjectionError(
                f"unknown FaultPlan fields {sorted(unknown)}"
            )
        payload = dict(data)
        payload["faults"] = tuple(
            FaultSpec.from_dict(f) for f in payload.get("faults", ())
        )
        return cls(**payload)
