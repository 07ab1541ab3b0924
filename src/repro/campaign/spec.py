"""Declarative run specifications for SSD-level simulation campaigns.

A :class:`RunSpec` captures *everything* that determines one
:class:`~repro.ssd.simulator.SSDSimulator` run — workload, retry policy,
wear level, seed, scale, config overrides, host mode — as a frozen,
hashable value.  Because every stochastic component of the library is
seeded, a spec is a pure function of its fields: rebuilding trace and
simulator from the same spec on any process yields a bit-identical
:class:`~repro.ssd.simulator.SimulationResult`.  That property is what
lets the executors (:mod:`.executor`) farm cells out to worker processes
and the cache (:mod:`.cache`) skip already-computed cells by content hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..config import SSDConfig, small_test_config
from ..errors import ConfigError
from ..faults import FaultPlan
from ..nand.thermal import check_temperature
from ..ssd import SimulationResult, SSDSimulator
from ..ssd.ecc_model import EccOutcomeModel
from ..ssd.host import check_size
from ..ssd.reliability import check_finite_non_negative
from ..workloads import generate
from ..workloads.synthetic import workload_spec
from ..workloads.trace import Trace

#: Bump when the meaning of any RunSpec field changes: the version is mixed
#: into the content hash, so stale cache entries can never be mistaken for
#: current ones.
SPEC_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SsdScale:
    """Workload/geometry sizing for one experiment scale."""

    config: SSDConfig
    n_requests: int
    user_pages: int
    queue_depth: int


def ssd_scale(scale: str) -> SsdScale:
    """Resolve an SSD-experiment scale name.

    ``small`` finishes each (workload, policy, P/E) run in well under a
    second; ``full`` uses a larger device slice and more requests for
    smoother numbers.  Both keep the Table-I plane:channel bandwidth ratio.
    """
    if scale == "small":
        return SsdScale(
            config=small_test_config(),
            n_requests=600,
            user_pages=8_000,
            queue_depth=64,
        )
    if scale == "full":
        config = SSDConfig().scaled(
            channels=8, dies_per_channel=4, planes_per_die=4,
            blocks_per_plane=96, pages_per_block=128,
        )
        return SsdScale(
            config=config,
            n_requests=4_000,
            user_pages=200_000,
            queue_depth=128,
        )
    raise ConfigError(f"unknown scale {scale!r} (use 'small' or 'full')")


#: Spec fields that override the scale's :class:`SsdScale` sizing.
SIZING_FIELDS = ("n_requests", "user_pages", "queue_depth")


def check_sizing(owner) -> None:
    """``owner``'s :data:`SIZING_FIELDS` are ``None`` (the scale's default)
    or ints >= 1: a zero must not silently run the default."""
    for name in SIZING_FIELDS:
        check_size(owner, name, getattr(owner, name))


def _freeze_kwargs(value) -> Tuple[Tuple[str, object], ...]:
    """Canonicalise a flat mapping into a sorted tuple of (key, value)."""
    if value is None:
        return ()
    if isinstance(value, dict):
        items = value.items()
    else:
        items = tuple(value)
    out = []
    for key, val in sorted(items):
        if isinstance(val, (dict, list)):
            raise ConfigError(f"spec kwarg {key!r} must be a scalar")
        out.append((str(key), val))
    return tuple(out)


def _freeze_overrides(value) -> Tuple[Tuple[str, object], ...]:
    """Canonicalise nested config overrides.

    Accepts ``{"ecc": {"buffer_pages": 4}, "over_provisioning": 0.1}`` —
    section names map either to a mapping of field overrides (for the
    nested config dataclasses) or to a scalar (for top-level fields).
    """
    if value is None:
        return ()
    if isinstance(value, dict):
        items = value.items()
    else:
        items = tuple(value)
    out = []
    for section, val in sorted(items):
        if isinstance(val, dict) or (isinstance(val, (tuple, list)) and val
                                     and isinstance(val[0], (tuple, list))):
            out.append((str(section), _freeze_kwargs(val if isinstance(val, dict)
                                                     else dict(val))))
        else:
            out.append((str(section), val))
    return tuple(out)


def _thaw(frozen: Tuple) -> dict:
    """Inverse of the freezers: canonical tuples back to plain dicts."""
    out = {}
    for key, val in frozen:
        out[key] = dict(val) if isinstance(val, tuple) else val
    return out


@dataclass(frozen=True)
class RunSpec:
    """One cell of a simulation campaign, fully declarative.

    Fields left at ``None`` resolve to the scale's defaults at build time,
    so a spec hashes identically no matter which host built it.
    """

    workload: str
    policy: str
    pe_cycles: float = 0.0
    seed: int = 7
    scale: str = "small"
    mode: str = "closed"
    #: ``None`` -> the scale's queue depth / request count / footprint.
    queue_depth: Optional[int] = None
    n_requests: Optional[int] = None
    user_pages: Optional[int] = None
    #: ``None`` -> :meth:`SSDSimulator.run_trace`'s default time limit.
    time_limit_us: Optional[float] = None
    #: Extra keyword arguments for the retry policy (e.g. RiF's
    #: ``recheck_reread``).  Dicts are canonicalised to sorted tuples.
    policy_kwargs: Tuple[Tuple[str, object], ...] = ()
    #: Nested overrides applied on top of the scale's ``SSDConfig`` — see
    #: :func:`_freeze_overrides` for the accepted shapes.
    config_overrides: Tuple[Tuple[str, object], ...] = ()
    #: Extra keyword arguments for a custom :class:`EccOutcomeModel`
    #: (seeded with ``seed``); empty means the simulator's default model.
    outcome_kwargs: Tuple[Tuple[str, object], ...] = ()
    operating_temp_c: Optional[float] = None
    channel_arbitration: bool = False
    read_disturb_threshold: Optional[int] = None
    reliability_mode: str = "parametric"
    #: Optional deterministic fault-injection plan (:mod:`repro.faults`);
    #: accepted as a :class:`FaultPlan` or its dict form.  ``None`` keeps
    #: the spec's canonical dict — and therefore its content hash —
    #: identical to pre-fault-plan campaigns.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pe_cycles", float(self.pe_cycles))
        check_finite_non_negative("RunSpec.pe_cycles", self.pe_cycles)
        if self.operating_temp_c is not None:
            check_temperature("RunSpec.operating_temp_c",
                              self.operating_temp_c)
        if self.fault_plan is not None and not isinstance(self.fault_plan,
                                                          FaultPlan):
            object.__setattr__(self, "fault_plan",
                               FaultPlan.from_dict(dict(self.fault_plan)))
        object.__setattr__(self, "policy_kwargs",
                           _freeze_kwargs(self.policy_kwargs))
        object.__setattr__(self, "config_overrides",
                           _freeze_overrides(self.config_overrides))
        object.__setattr__(self, "outcome_kwargs",
                           _freeze_kwargs(self.outcome_kwargs))
        if self.mode not in ("closed", "timed"):
            raise ConfigError(f"unknown host mode {self.mode!r}")
        workload_spec(self.workload)
        check_sizing(self)
        if self.time_limit_us is not None and not self.time_limit_us > 0:
            raise ConfigError("RunSpec.time_limit_us must be None or > 0, "
                              f"got {self.time_limit_us!r}")

    # --- serialisation & identity -------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-compatible, canonical field order)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("policy_kwargs", "outcome_kwargs"):
                value = dict(value)
            elif f.name == "config_overrides":
                value = _thaw(value)
            elif f.name == "fault_plan":
                if value is None:
                    continue  # keep pre-fault-plan hashes/caches valid
                value = value.to_dict()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown RunSpec fields {sorted(unknown)}")
        return cls(**data)

    def content_hash(self) -> str:
        """Stable hex digest identifying this spec's computation.

        Canonical JSON (sorted keys, no whitespace) of the spec dict plus
        the schema version — the cache key and the parallel-run identity.
        """
        payload = json.dumps(
            {"schema": SPEC_SCHEMA_VERSION, "spec": self.to_dict()},
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable cell name for progress reporting."""
        return f"{self.workload}/pe{self.pe_cycles:g}/{self.policy}"

    # --- resolution ---------------------------------------------------------------

    def resolved_sizing(self) -> SsdScale:
        given = {name: getattr(self, name) for name in SIZING_FIELDS}
        return replace(ssd_scale(self.scale),
                       **{k: v for k, v in given.items() if v is not None})

    def run_kwargs(self) -> Dict[str, Any]:
        """The host-side keyword arguments of
        :meth:`SSDSimulator.run_trace` this spec asks for."""
        kwargs: Dict[str, Any] = {"mode": self.mode}
        if self.mode == "closed":
            kwargs["queue_depth"] = self.resolved_sizing().queue_depth
        if self.time_limit_us is not None:
            kwargs["time_limit_us"] = self.time_limit_us
        return kwargs

    def trace_key(self) -> tuple:
        """Identity of the trace this spec replays (for trace sharing)."""
        sizing = self.resolved_sizing()
        return (self.workload, sizing.n_requests, sizing.user_pages, self.seed)


# --- builders --------------------------------------------------------------------


def build_config(spec: RunSpec) -> SSDConfig:
    """The scale's config with the spec's overrides applied."""
    config = ssd_scale(spec.scale).config
    for section, value in spec.config_overrides:
        if not hasattr(config, section):
            raise ConfigError(f"unknown SSDConfig section {section!r}")
        if isinstance(value, tuple):
            current = getattr(config, section)
            config = replace(config, **{section: replace(current, **dict(value))})
        else:
            config = replace(config, **{section: value})
    return config


def build_trace(spec: RunSpec) -> Trace:
    """Regenerate the spec's trace (deterministic in the spec)."""
    sizing = spec.resolved_sizing()
    return generate(
        spec.workload,
        n_requests=sizing.n_requests,
        user_pages=sizing.user_pages,
        seed=spec.seed,
    )


def build_simulator(spec: RunSpec,
                    snapshot_interval_us: Optional[float] = None,
                    keep_raw_latencies: bool = True) -> SSDSimulator:
    """Construct the fully-wired simulator the spec describes.

    ``snapshot_interval_us`` and ``keep_raw_latencies`` are *observability*
    knobs, deliberately not :class:`RunSpec` fields: they never change a
    result (the obs layer is passive), so they must not perturb the spec's
    content hash or cache identity.
    """
    config = build_config(spec)
    outcome_model = None
    if spec.outcome_kwargs:
        outcome_model = EccOutcomeModel(
            ecc=config.ecc, seed=spec.seed, **dict(spec.outcome_kwargs)
        )
    return SSDSimulator(
        config,
        policy=spec.policy,
        pe_cycles=spec.pe_cycles,
        seed=spec.seed,
        outcome_model=outcome_model,
        policy_kwargs=dict(spec.policy_kwargs) or None,
        reliability_mode=spec.reliability_mode,
        read_disturb_threshold=spec.read_disturb_threshold,
        operating_temp_c=spec.operating_temp_c,
        channel_arbitration=spec.channel_arbitration,
        fault_plan=spec.fault_plan,
        snapshot_interval_us=snapshot_interval_us,
        keep_raw_latencies=keep_raw_latencies,
    )


def execute(spec: RunSpec, trace: Optional[Trace] = None,
            snapshot_interval_us: Optional[float] = None) -> SimulationResult:
    """Run one spec to completion.

    ``trace`` may be supplied to share a pre-generated trace across specs
    with the same :meth:`RunSpec.trace_key`; it must be identical to what
    :func:`build_trace` would regenerate (the serial executor relies on
    this to skip redundant generation without changing results).
    ``snapshot_interval_us`` enables the passive per-window recorder
    (burn-rate SLO evaluation needs its time slices) without affecting
    the result or the spec's cache identity.
    """
    ssd = build_simulator(spec, snapshot_interval_us=snapshot_interval_us)
    return ssd.run_trace(trace if trace is not None else build_trace(spec),
                         **spec.run_kwargs())


def grid_specs(
    workloads: Sequence[str],
    policies: Sequence[str],
    pe_points: Sequence[float],
    scale: str = "small",
    seed: int = 7,
    **common,
) -> List[RunSpec]:
    """The standard (workload x P/E x policy) campaign, in serial-loop order.

    ``common`` passes any further :class:`RunSpec` field (queue depth,
    config overrides, ...) uniformly to every cell.
    """
    return [
        RunSpec(workload=workload, policy=policy, pe_cycles=pe,
                seed=seed, scale=scale, **common)
        for workload in workloads
        for pe in pe_points
        for policy in policies
    ]
