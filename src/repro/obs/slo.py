"""Declarative SLOs: latency objectives, error budgets, burn-rate alerts.

RiF's argument is a tail-latency argument — on-die early retry exists to
pull p99/p999 back toward the no-retry baseline — so policies should be
judged the way a fleet operator judges drives: against explicit service
level objectives.  An :class:`SloSpec` declares

* **latency objectives** — "p99 read latency ≤ 120 us" — checked against
  a :class:`~repro.obs.histogram.LatencyHistogram`;
* an **error budget** — the tolerated fraction of *bad events* (retried
  reads, uncorrectable transfers, ...) over *total events*; and
* **burn-rate rules** — Google-SRE-style windowed alerts: over any
  ``window`` consecutive :class:`~repro.obs.snapshots.UsageSnapshot`
  time slices, the bad-event fraction must not exceed
  ``max_burn_rate`` × the error budget.

Evaluation (:func:`evaluate_slo`) is pure arithmetic over already-frozen
measurements — no RNG, no simulator access — and returns an
:class:`SloReport` of per-rule :class:`SloVerdict` entries plus an
overall pass/fail.  Specs round-trip through JSON (:meth:`SloSpec.to_dict`)
so policy files can live next to experiment configs.

Import discipline: like the rest of :mod:`repro.obs`, this module never
imports :mod:`repro.ssd` or :mod:`repro.campaign`; fleet-level evaluation
duck-types against :class:`~repro.obs.registry.FleetAggregator` and reads
its per-policy sums of the SimMetrics fields :data:`EVENT_COUNTERS` names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from .histogram import LatencyHistogram

#: Bad/total event names an :class:`SloSpec` may reference, mapped to the
#: :class:`~repro.ssd.metrics.SimMetrics` field that counts them.  The same
#: names are counter keys in snapshot windows.
EVENT_COUNTERS: Dict[str, str] = {
    "page_reads": "page_reads",
    "retried_reads": "retried_reads",
    "in_die_retries": "in_die_retries",
    "fault_retries": "fault_retries",
    "senses": "total_senses",
    "uncorrectable_transfers": "uncorrectable_transfers",
    "degraded_reads": "degraded_reads",
    "rp_mispredicts": "rp_mispredicts",
}


@dataclass(frozen=True)
class LatencyObjective:
    """One tail objective: percentile ``quantile`` must be ≤ ``threshold_us``."""

    quantile: float
    threshold_us: float

    def __post_init__(self) -> None:
        if not 0 < self.quantile <= 100:
            raise ConfigError(
                f"objective quantile must be in (0, 100], got {self.quantile}"
            )
        if self.threshold_us <= 0:
            raise ConfigError("objective threshold must be positive")

    @property
    def name(self) -> str:
        # 50.0 -> "p50", 99.9 -> "p999" (the repo's tail shorthand)
        text = f"{self.quantile:g}".replace(".", "")
        return f"p{text}"


@dataclass(frozen=True)
class BurnRateRule:
    """Windowed burn-rate alert over snapshot time slices.

    Burn rate is the bad-event fraction in a window divided by the error
    budget: burning at exactly 1.0 spends the budget exactly; a short
    window with a high ``max_burn_rate`` catches fast burns, a long
    window with a low one catches slow leaks (the classic multi-window
    pairing).
    """

    window: int
    max_burn_rate: float

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigError("burn-rate window must span >= 1 slice")
        if self.max_burn_rate <= 0:
            raise ConfigError("max_burn_rate must be positive")


@dataclass(frozen=True)
class SloSpec:
    """A named, declarative service-level objective."""

    name: str
    objectives: Tuple[LatencyObjective, ...] = ()
    #: tolerated bad_event / event_total fraction (None = no budget rule)
    error_budget: Optional[float] = None
    bad_event: str = "retried_reads"
    event_total: str = "page_reads"
    burn_rules: Tuple[BurnRateRule, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("SLO needs a name")
        if self.error_budget is not None and not 0 < self.error_budget <= 1:
            raise ConfigError(
                f"error budget must be in (0, 1], got {self.error_budget}"
            )
        for event in (self.bad_event, self.event_total):
            if event not in EVENT_COUNTERS:
                raise ConfigError(
                    f"unknown SLO event {event!r}; "
                    f"known: {sorted(EVENT_COUNTERS)}"
                )
        if self.burn_rules and self.error_budget is None:
            raise ConfigError("burn-rate rules need an error budget")

    # --- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "objectives": [
                {"quantile": o.quantile, "threshold_us": o.threshold_us}
                for o in self.objectives
            ],
            "error_budget": self.error_budget,
            "bad_event": self.bad_event,
            "event_total": self.event_total,
            "burn_rules": [
                {"window": r.window, "max_burn_rate": r.max_burn_rate}
                for r in self.burn_rules
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SloSpec":
        _fields_of(data, "SLO spec", "name")
        return cls(
            name=data["name"],
            objectives=tuple(
                LatencyObjective(*_fields_of(o, "SLO objective", "quantile",
                                             "threshold_us"))
                for o in data.get("objectives", ())
            ),
            error_budget=data.get("error_budget"),
            bad_event=data.get("bad_event", "retried_reads"),
            event_total=data.get("event_total", "page_reads"),
            burn_rules=tuple(
                BurnRateRule(*_fields_of(r, "burn rule", "window",
                                         "max_burn_rate"))
                for r in data.get("burn_rules", ())
            ),
        )


def _fields_of(item, what: str, *names: str) -> list:
    """The ``names`` fields of a JSON object; an item that is not an
    object, or lacks one of them, is a :class:`ConfigError`."""
    if not isinstance(item, dict):
        raise ConfigError(f"{what} must be a JSON object, got {item!r}")
    for name in names:
        if name not in item:
            raise ConfigError(f"{what} has no {name!r}: {item!r}")
    return [item[name] for name in names]


@dataclass(frozen=True)
class SloVerdict:
    """One evaluated rule: what was measured against what limit."""

    kind: str  # "latency" | "budget" | "burn"
    rule: str
    ok: bool
    observed: Optional[float]
    limit: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rule": self.rule,
            "ok": self.ok,
            "observed": self.observed,
            "limit": self.limit,
            "detail": self.detail,
        }


@dataclass
class SloReport:
    """All verdicts for one (SLO, subject) pair."""

    slo: str
    subject: str
    verdicts: List[SloVerdict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "slo": self.slo,
            "subject": self.subject,
            "passed": self.passed,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def windows_from_snapshots(snapshots: Sequence, bad_event: str,
                           event_total: str) -> List[Tuple[float, float]]:
    """Per-slice (bad, total) event counts from ``UsageSnapshot`` windows."""
    return [
        (snap.counters.get(bad_event, 0.0),
         snap.counters.get(event_total, 0.0))
        for snap in snapshots
    ]


def max_burn_rate(windows: Sequence[Tuple[float, float]], window: int,
                  error_budget: float) -> Optional[float]:
    """Worst rolling bad-fraction over ``window`` slices, as budget multiples.

    Returns ``None`` when no rolling window saw any total events (burn is
    then undefined, not zero).
    """
    if window > len(windows):
        window = max(len(windows), 1)
    worst: Optional[float] = None
    for start in range(0, max(len(windows) - window + 1, 1)):
        chunk = windows[start:start + window]
        if not chunk:
            continue
        bad = sum(b for b, _t in chunk)
        total = sum(t for _b, t in chunk)
        if total <= 0:
            continue
        rate = (bad / total) / error_budget
        if worst is None or rate > worst:
            worst = rate
    return worst


def evaluate_slo(spec: SloSpec, hist: Optional[LatencyHistogram],
                 bad: float, total: float,
                 windows: Optional[Sequence[Tuple[float, float]]] = None,
                 subject: str = "") -> SloReport:
    """Judge one subject (a policy, a cell, a fleet) against one SLO.

    ``hist`` carries the latency distribution (``None`` or empty fails
    latency objectives as "no data"), ``bad``/``total`` the cumulative
    event counts, and ``windows`` optional per-slice counts for burn-rate
    rules (rules are skipped — not failed — when no windows are given,
    since cumulative aggregates cannot witness a windowed burn).
    """
    report = SloReport(slo=spec.name, subject=subject)
    for objective in spec.objectives:
        if hist is None or hist.count == 0:
            report.verdicts.append(SloVerdict(
                "latency", objective.name, ok=False, observed=None,
                limit=objective.threshold_us, detail="no latency samples"))
            continue
        observed = hist.percentile(objective.quantile)
        report.verdicts.append(SloVerdict(
            "latency", objective.name, ok=observed <= objective.threshold_us,
            observed=observed, limit=objective.threshold_us,
            detail=f"{observed:.1f} us vs {objective.threshold_us:g} us"))
    if spec.error_budget is not None:
        fraction = bad / total if total > 0 else 0.0
        report.verdicts.append(SloVerdict(
            "budget", f"{spec.bad_event}/{spec.event_total}",
            ok=fraction <= spec.error_budget,
            observed=fraction, limit=spec.error_budget,
            detail=f"{bad:g}/{total:g} bad events "
                   f"({fraction:.4%} of a {spec.error_budget:.2%} budget)"))
        if windows is not None:
            for rule in spec.burn_rules:
                worst = max_burn_rate(windows, rule.window, spec.error_budget)
                report.verdicts.append(SloVerdict(
                    "burn", f"{rule.window}w",
                    ok=worst is None or worst <= rule.max_burn_rate,
                    observed=worst, limit=rule.max_burn_rate,
                    detail="no events in any window" if worst is None else
                    f"worst {rule.window}-slice burn {worst:.2f}x budget "
                    f"(limit {rule.max_burn_rate:g}x)"))
    return report


def evaluate_fleet(fleet, specs: Sequence[SloSpec]) -> List[SloReport]:
    """Per-policy verdicts for a fleet rollup (one report per SLO×policy).

    ``fleet`` duck-types :class:`~repro.obs.registry.FleetAggregator`,
    whose per-policy sums (``fleet.total``) give the event counts.
    Burn-rate rules are skipped here because fleet rollups are cumulative
    (use :func:`evaluate_slo` with snapshot windows for a single cell).
    """
    reports = []
    for policy in fleet.policies():
        hist = fleet.read_hist(policy)
        for spec in specs:
            bad = fleet.total(policy, EVENT_COUNTERS[spec.bad_event])
            total = fleet.total(policy, EVENT_COUNTERS[spec.event_total])
            reports.append(evaluate_slo(spec, hist, bad, total,
                                        windows=None, subject=policy))
    return reports


def default_slos() -> List[SloSpec]:
    """A starter policy set calibrated to the ``small`` campaign scale.

    Closed-loop latencies there are queueing-dominated (low thousands of
    microseconds), so the tail objectives sit where the policies separate
    at high wear: RiFSSD and RPSSD meet ``read-tail`` at 2K P/E while
    SENC blows through it, and only RiF's in-die resolution keeps doomed
    transfers under the ``wasted-transfers`` budget.  ``retry-budget``
    leashes total retry pressure (every policy retries most reads at
    extreme wear) and carries the windowed burn-rate rules — with a 0.75
    budget the burn rate tops out at 1.33x, hence the tight limits.
    Override with ``--slo FILE`` for real studies.
    """
    return [
        SloSpec(
            name="read-tail",
            objectives=(
                LatencyObjective(50.0, 3000.0),
                LatencyObjective(99.0, 5000.0),
                LatencyObjective(99.9, 6000.0),
            ),
        ),
        SloSpec(
            name="retry-budget",
            error_budget=0.75,
            bad_event="retried_reads",
            event_total="page_reads",
            burn_rules=(BurnRateRule(window=1, max_burn_rate=1.25),
                        BurnRateRule(window=6, max_burn_rate=1.1)),
        ),
        SloSpec(
            name="wasted-transfers",
            error_budget=0.01,
            bad_event="uncorrectable_transfers",
            event_total="page_reads",
        ),
    ]


def load_slos(data) -> List[SloSpec]:
    """Parse a JSON document (one spec or a list of specs)."""
    items = data if isinstance(data, list) else [data]
    return [SloSpec.from_dict(item) for item in items]
