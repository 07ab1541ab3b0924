"""Labeled metric registry: counters, gauges, histograms, exact merging.

The fleet-level observability plane (ROADMAP item 1) needs one metrics
vocabulary that works at every level — a single simulator, a campaign
cell, a merged multi-worker grid.  :class:`MetricRegistry` provides it:
Prometheus-style metric families (:class:`Counter` / :class:`Gauge` /
:class:`Histogram` children keyed by label values), exact JSON round-trip
(:meth:`MetricRegistry.to_dict`), and commutative, associative
:meth:`MetricRegistry.merge` — counters and histogram buckets add, so
merging per-cell registries in *any* order (serial loop, process pool,
resumed ledger replay) yields bit-identical fleet rollups.

Everything here is **passive and RNG-free**.  :func:`scrape_simulator`
and :func:`scrape_result` only *read* the accounting the simulator
already keeps (:class:`~repro.ssd.metrics.SimMetrics`, the per-channel
``busy_time_by_tag`` / ``blocked_time`` counters, the decoder-buffer
occupancy) — they never touch the event queue, so a scraped run is
bit-identical to an unscraped one.

Import discipline: this module never imports :mod:`repro.ssd` or
:mod:`repro.campaign` (those layers import *us*); the scrape functions
are duck-typed against the simulator/result attribute contract.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigError
from .histogram import LatencyHistogram

#: Bump when the serialised registry layout changes meaning.
REGISTRY_SCHEMA_VERSION = 1

METRIC_KINDS = ("counter", "gauge", "histogram")

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """Monotonic cumulative count (one labeled child of a family)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(f"counters only go up, got inc({amount})")
        self.value += amount


class Gauge:
    """Point-in-time level (one labeled child of a family).

    Merging gauges *sums* them — the fleet reading of an occupancy gauge
    is the total across members, and a sum is the only order-independent
    choice that keeps :meth:`MetricRegistry.merge` commutative.
    """

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = float(value)

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Latency distribution child, backed by :class:`LatencyHistogram`."""

    __slots__ = ("hist",)

    def __init__(self, hist: Optional[LatencyHistogram] = None, **grid):
        self.hist = hist if hist is not None else LatencyHistogram(**grid)

    def observe(self, value_us: float) -> None:
        self.hist.record(value_us)

    def merge_hist(self, other: LatencyHistogram) -> None:
        self.hist.merge(other)


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children of one metric name, keyed by their label values."""

    def __init__(self, name: str, kind: str, help: str = "",
                 label_names: Tuple[str, ...] = (), **grid):
        if not _NAME_RE.match(name):
            raise ConfigError(f"invalid metric name {name!r}")
        if kind not in METRIC_KINDS:
            raise ConfigError(f"unknown metric kind {kind!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ConfigError(f"invalid label name {label!r}")
        if len(set(label_names)) != len(label_names):
            raise ConfigError(f"duplicate label names in {label_names}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.grid = dict(grid)  # histogram bucket geometry overrides
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labels) -> object:
        """The child for one label-value assignment (created on demand)."""
        if set(labels) != set(self.label_names):
            raise ConfigError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = _CHILD_TYPES[self.kind](**self.grid) \
                if self.kind == "histogram" else _CHILD_TYPES[self.kind]()
            self._children[key] = child
        return child

    # unlabeled convenience: a family with no label names has one child
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value_us: float) -> None:
        self.labels().observe(value_us)

    def samples(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        """(label_values, child) pairs in sorted label order."""
        for key in sorted(self._children):
            yield key, self._children[key]

    def total(self) -> float:
        """Sum of every child's value (counters/gauges only)."""
        if self.kind == "histogram":
            raise ConfigError(f"{self.name}: histograms have no total()")
        return sum(child.value for _k, child in self.samples())


class MetricRegistry:
    """A set of metric families with exact merge and JSON round-trip."""

    def __init__(self):
        self._families: Dict[str, MetricFamily] = {}

    # --- registration -----------------------------------------------------

    def _register(self, name: str, kind: str, help: str,
                  label_names: Tuple[str, ...], **grid) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != tuple(label_names):
                raise ConfigError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.label_names}; cannot re-register "
                    f"as {kind} with labels {tuple(label_names)}"
                )
            return family
        family = MetricFamily(name, kind, help, tuple(label_names), **grid)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: Tuple[str, ...] = ()) -> MetricFamily:
        return self._register(name, "counter", help, tuple(labels))

    def gauge(self, name: str, help: str = "",
              labels: Tuple[str, ...] = ()) -> MetricFamily:
        return self._register(name, "gauge", help, tuple(labels))

    def histogram(self, name: str, help: str = "",
                  labels: Tuple[str, ...] = (), **grid) -> MetricFamily:
        return self._register(name, "histogram", help, tuple(labels), **grid)

    # --- queries ----------------------------------------------------------

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def value(self, name: str, **labels) -> float:
        """One counter/gauge child's value (0.0 when never touched)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        key = tuple(str(labels[n]) for n in family.label_names)
        child = family._children.get(key)
        return 0.0 if child is None else child.value

    def hist(self, name: str, **labels) -> Optional[LatencyHistogram]:
        """One histogram child's distribution, or ``None`` if absent."""
        family = self._families.get(name)
        if family is None:
            return None
        key = tuple(str(labels[n]) for n in family.label_names)
        child = family._children.get(key)
        return None if child is None else child.hist

    def label_values(self, name: str, label: str) -> List[str]:
        """Sorted distinct values one label takes across a family."""
        family = self._families.get(name)
        if family is None:
            return []
        index = family.label_names.index(label)
        return sorted({key[index] for key, _c in family.samples()})

    # --- merge ------------------------------------------------------------

    def merge(self, other: "MetricRegistry") -> None:
        """Fold another registry in (exact; commutative and associative).

        Counters and histogram buckets add; gauges sum (see
        :class:`Gauge`).  Conflicting family definitions raise.
        """
        for theirs in other.families():
            ours = self._register(theirs.name, theirs.kind, theirs.help,
                                  theirs.label_names, **theirs.grid)
            for key, child in theirs.samples():
                labels = dict(zip(ours.label_names, key))
                mine = ours.labels(**labels)
                if theirs.kind == "histogram":
                    mine.merge_hist(child.hist)
                else:
                    mine.value += child.value

    # --- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        """Deterministic JSON-compatible dict (sorted families/children);
        :meth:`from_dict` round-trips exactly."""
        families = []
        for family in self.families():
            children = []
            for key, child in family.samples():
                entry: dict = {"labels": list(key)}
                if family.kind == "histogram":
                    entry["hist"] = child.hist.to_dict()
                else:
                    entry["value"] = child.value
                children.append(entry)
            families.append({
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "grid": dict(family.grid),
                "children": children,
            })
        return {"schema": REGISTRY_SCHEMA_VERSION, "families": families}

    @classmethod
    def from_dict(cls, data: dict) -> "MetricRegistry":
        registry = cls()
        for item in data.get("families", []):
            family = registry._register(
                item["name"], item["kind"], item.get("help", ""),
                tuple(item.get("label_names", ())),
                **item.get("grid", {}),
            )
            for entry in item.get("children", []):
                labels = dict(zip(family.label_names, entry["labels"]))
                child = family.labels(**labels)
                if family.kind == "histogram":
                    child.hist.merge(LatencyHistogram.from_dict(entry["hist"]))
                else:
                    child.value += float(entry["value"])
        return registry


# --- scraping the simulator --------------------------------------------------

#: SimMetrics counter fields and the registry names they scrape into.
_METRIC_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("ssd_host_read_bytes_total", "host_read_bytes",
     "bytes returned to the host"),
    ("ssd_host_write_bytes_total", "host_write_bytes",
     "bytes accepted from the host"),
    ("ssd_page_reads_total", "page_reads", "page reads issued"),
    ("ssd_page_writes_total", "page_writes", "page programs issued"),
    ("ssd_senses_total", "total_senses", "NAND sense operations"),
    ("ssd_uncorrectable_transfers_total", "uncorrectable_transfers",
     "doomed page transfers that crossed the channel"),
    ("ssd_rp_mispredicts_total", "rp_mispredicts",
     "read-predictor verdicts contradicted by the decode outcome"),
    ("ssd_gc_page_copies_total", "gc_page_copies", "GC page relocations"),
    ("ssd_disturb_relocations_total", "disturb_relocations",
     "read-disturb block rewrites"),
    ("ssd_faults_injected_total", "faults_injected", "fault firings"),
    ("ssd_faults_absorbed_total", "faults_absorbed",
     "faulted reads that still completed cleanly"),
    ("ssd_retired_blocks_total", "retired_blocks",
     "grown-bad-block retirements"),
    ("ssd_degraded_reads_total", "degraded_reads",
     "reads absorbed in degraded mode"),
)

#: Retry counters by hop: where the extra attempt was resolved.
_RETRY_HOPS: Tuple[Tuple[str, str], ...] = (
    ("controller", "retried_reads"),
    ("in_die", "in_die_retries"),
    ("fault", "fault_retries"),
)


def _scrape_sim_metrics(registry: MetricRegistry, metrics,
                        base: Dict[str, str]) -> None:
    """Fold one :class:`~repro.ssd.metrics.SimMetrics` into a registry."""
    names = tuple(sorted(base))
    values = {k: str(v) for k, v in base.items()}
    for name, attr, help in _METRIC_COUNTERS:
        family = registry.counter(name, help, labels=names)
        family.labels(**values).inc(getattr(metrics, attr))
    retries = registry.counter(
        "ssd_retries_total", "read retries by resolving hop",
        labels=names + ("hop",))
    for hop, attr in _RETRY_HOPS:
        retries.labels(hop=hop, **values).inc(getattr(metrics, attr))
    elapsed = registry.gauge("ssd_elapsed_us",
                             "simulated wall clock", labels=names)
    elapsed.labels(**values).inc(metrics.elapsed_us)
    for name, hist, help in (
        ("ssd_read_latency_us", metrics.read_latency_hist,
         "host read latency"),
        ("ssd_write_latency_us", metrics.write_latency_hist,
         "host write latency"),
    ):
        family = registry.histogram(name, help, labels=names)
        family.labels(**values).merge_hist(hist)


def scrape_simulator(ssd, registry: Optional[MetricRegistry] = None,
                     labels: Optional[Dict[str, str]] = None) -> MetricRegistry:
    """Scrape a (running or finished) ``SSDSimulator`` into a registry.

    A pure pull: reads :class:`~repro.ssd.metrics.SimMetrics`, per-channel
    ``busy_time_by_tag`` / ``blocked_time`` / ``jobs_completed``, and the
    decoder-buffer occupancy (current, peak, capacity) of the
    :mod:`repro.ssd.resources` channels and decoders.  Each call *adds* to
    ``registry`` — scrape into a fresh registry unless accumulation is
    intended.
    """
    registry = registry if registry is not None else MetricRegistry()
    base = dict(labels or {})
    _scrape_sim_metrics(registry, ssd.metrics, base)
    names = tuple(sorted(base))
    values = {k: str(v) for k, v in base.items()}

    busy = registry.counter(
        "ssd_channel_busy_us_total",
        "channel occupancy by Fig.-18 tag", labels=names + ("channel", "tag"))
    eccwait = registry.counter(
        "ssd_channel_eccwait_us_total",
        "channel time blocked on a full decoder buffer",
        labels=names + ("channel",))
    jobs = registry.counter("ssd_channel_jobs_total",
                            "jobs completed per channel",
                            labels=names + ("channel",))
    in_use = registry.gauge("ssd_ecc_buffer_slots_in_use",
                            "decoder-buffer slots currently occupied",
                            labels=names + ("channel",))
    peak = registry.gauge("ssd_ecc_buffer_peak_slots",
                          "high-water decoder-buffer occupancy",
                          labels=names + ("channel",))
    capacity = registry.gauge("ssd_ecc_buffer_pages",
                              "decoder-buffer capacity",
                              labels=names + ("channel",))
    for channel, ecc in zip(ssd.channels, ssd.eccs):
        name = channel.name
        for tag, t_us in sorted(channel.busy_time_by_tag.items()):
            busy.labels(channel=name, tag=tag, **values).inc(t_us)
        eccwait.labels(channel=name, **values).inc(channel.blocked_time)
        jobs.labels(channel=name, **values).inc(channel.jobs_completed)
        in_use.labels(channel=name, **values).set(
            ecc.slots_in_use + ecc.held_slots)
        peak.labels(channel=name, **values).set(ecc.peak_slots_in_use)
        capacity.labels(channel=name, **values).set(ecc.buffer_pages)

    offline = registry.gauge("ssd_offline_dies",
                             "dies configured offline by fault injection",
                             labels=names)
    plan = getattr(ssd, "fault_plan", None)
    n_offline = 0
    if plan is not None:
        n_offline = len({(f.channel, f.die) for f in plan.faults
                         if f.kind == "die_offline"})
    offline.labels(**values).set(n_offline)
    return registry


def scrape_result(result, registry: Optional[MetricRegistry] = None,
                  labels: Optional[Dict[str, str]] = None) -> MetricRegistry:
    """Scrape a serialisable ``SimulationResult`` into a registry.

    This is the fleet path: it works on fresh, cached, and ledger-replayed
    results alike (they are bit-identical JSON round-trips), so merged
    rollups cannot depend on where a cell's result came from.  Channel
    detail collapses to the aggregate Fig.-18 breakdown the result keeps.
    """
    registry = registry if registry is not None else MetricRegistry()
    base = dict(labels or {})
    _scrape_sim_metrics(registry, result.metrics, base)
    names = tuple(sorted(base))
    values = {k: str(v) for k, v in base.items()}
    usage = registry.counter(
        "ssd_channel_time_us_total",
        "aggregate channel time by Fig.-18 tag", labels=names + ("tag",))
    cu = result.channel_usage
    for tag, t_us in (("COR", cu.cor), ("UNCOR", cu.uncor),
                      ("WRITE", cu.write), ("GC", cu.gc),
                      ("ECCWAIT", cu.eccwait), ("IDLE", cu.idle)):
        usage.labels(tag=tag, **values).inc(t_us)
    return registry


# --- fleet aggregation -------------------------------------------------------


class FleetAggregator:
    """Mergeable cross-cell rollup of a running (or finished) campaign.

    Feed it every cell outcome — fresh, cached, or ledger-replayed — via
    :meth:`observe`; each successful cell is scraped into the shared
    registry under its ``policy`` label, so the fleet's per-policy latency
    histograms, retry counters, and degraded-cell counts accumulate
    exactly.  Because the underlying merge is commutative, serial and
    parallel campaigns over the same grid produce identical aggregates.

    :meth:`observe_record` rebuilds the same rollup (minus channel-time
    detail) from the JSONL telemetry stream's ``cell`` records, so a
    consumer tailing a campaign log can maintain live fleet metrics
    without touching the campaign process.
    """

    def __init__(self):
        self.registry = MetricRegistry()
        self.cells = 0
        self.cached = 0
        self.failed = 0

    # --- feeding ----------------------------------------------------------

    def _cell_counters(self, policy: str, ok: bool, cached: bool,
                       degraded: bool) -> None:
        self.cells += 1
        if cached:
            self.cached += 1
        status = "ok" if ok else "failed"
        if not ok:
            self.failed += 1
        family = self.registry.counter(
            "fleet_cells_total", "campaign cells by policy and outcome",
            labels=("policy", "status"))
        family.labels(policy=policy, status=status).inc()
        degraded_family = self.registry.counter(
            "fleet_degraded_cells_total",
            "cells that served reads in degraded mode", labels=("policy",))
        if degraded:
            degraded_family.labels(policy=policy).inc()

    def observe(self, spec, outcome, cached: bool = False) -> None:
        """Fold one finished cell in (``outcome`` is a result or failure)."""
        policy = str(getattr(spec, "policy", getattr(outcome, "policy", "?")))
        metrics = getattr(outcome, "metrics", None)
        self._cell_counters(
            policy, ok=metrics is not None, cached=cached,
            degraded=metrics is not None and metrics.degraded_reads > 0)
        if metrics is not None:
            scrape_result(outcome, self.registry, labels={"policy": policy})

    def observe_record(self, record: dict) -> None:
        """Fold one JSONL telemetry ``cell`` record in (see
        :func:`repro.campaign.progress.cell_report`)."""
        if record.get("event") != "cell":
            return
        label = record.get("label", "?/?/?")
        policy = str(record.get("policy", label.rsplit("/", 1)[-1]))
        ok = bool(record.get("ok"))
        self._cell_counters(policy, ok=ok,
                            cached=bool(record.get("cached")),
                            degraded=record.get("degraded_reads", 0) > 0)
        if not ok:
            return
        base = {"policy": policy}
        names = ("policy",)
        for name, key in (
            ("ssd_page_reads_total", "page_reads"),
            ("ssd_uncorrectable_transfers_total", "uncorrectable_transfers"),
            ("ssd_faults_injected_total", "faults_injected"),
            ("ssd_degraded_reads_total", "degraded_reads"),
        ):
            family = self.registry.counter(name, labels=names)
            family.labels(**base).inc(record.get(key, 0))
        retries = self.registry.counter("ssd_retries_total",
                                        labels=names + ("hop",))
        retries.labels(hop="controller", **base).inc(
            record.get("retried_reads", 0))
        elapsed = self.registry.gauge("ssd_elapsed_us", labels=names)
        elapsed.labels(**base).inc(record.get("elapsed_us", 0.0))
        hist_data = record.get("read_latency_hist")
        if hist_data:
            family = self.registry.histogram("ssd_read_latency_us",
                                             labels=names)
            family.labels(**base).merge_hist(
                LatencyHistogram.from_dict(hist_data))

    # --- merging / serialisation -----------------------------------------

    def merge(self, other: "FleetAggregator") -> None:
        self.registry.merge(other.registry)
        self.cells += other.cells
        self.cached += other.cached
        self.failed += other.failed

    def to_dict(self) -> dict:
        return {
            "schema": REGISTRY_SCHEMA_VERSION,
            "cells": self.cells,
            "cached": self.cached,
            "failed": self.failed,
            "registry": self.registry.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetAggregator":
        fleet = cls()
        fleet.cells = int(data.get("cells", 0))
        fleet.cached = int(data.get("cached", 0))
        fleet.failed = int(data.get("failed", 0))
        fleet.registry = MetricRegistry.from_dict(data.get("registry", {}))
        return fleet

    # --- queries ----------------------------------------------------------

    def policies(self) -> List[str]:
        return self.registry.label_values("fleet_cells_total", "policy")

    def read_hist(self, policy: str) -> Optional[LatencyHistogram]:
        return self.registry.hist("ssd_read_latency_us", policy=policy)

    def policy_summary(self) -> List[dict]:
        """Per-policy dashboard rows: cells, tail latency, retry rate."""
        rows = []
        for policy in self.policies():
            reg = self.registry
            cells = (reg.value("fleet_cells_total", policy=policy, status="ok")
                     + reg.value("fleet_cells_total", policy=policy,
                                 status="failed"))
            page_reads = reg.value("ssd_page_reads_total", policy=policy)
            retried = reg.value("ssd_retries_total", policy=policy,
                                hop="controller")
            hist = self.read_hist(policy)
            row = {
                "policy": policy,
                "cells": int(cells),
                "reads": int(page_reads),
                "retry_rate": retried / page_reads if page_reads else 0.0,
                "degraded_cells": int(reg.value(
                    "fleet_degraded_cells_total", policy=policy)),
                "p50_us": None, "p99_us": None, "p999_us": None,
            }
            if hist is not None and hist.count:
                for key, q in (("p50_us", 50.0), ("p99_us", 99.0),
                               ("p999_us", 99.9)):
                    row[key] = hist.percentile(q)
            rows.append(row)
        return rows

    def overall_read_hist(self) -> LatencyHistogram:
        """Every policy's read latencies merged (fleet-wide tail)."""
        merged = LatencyHistogram()
        for policy in self.policies():
            hist = self.read_hist(policy)
            if hist is not None:
                merged.merge(hist)
        return merged


def reconcile_with_metrics(registry: MetricRegistry, metrics,
                           **labels) -> List[str]:
    """Cross-check registry rollups against ``SimMetrics`` totals.

    Returns a list of mismatch descriptions (empty = exact agreement) —
    the invariant the acceptance tests pin: scraping is lossless.
    """
    problems = []
    for name, attr, _help in _METRIC_COUNTERS:
        got = registry.value(name, **labels)
        want = float(getattr(metrics, attr))
        if got != want:
            problems.append(f"{name}: registry {got} != metrics {want}")
    for hop, attr in _RETRY_HOPS:
        got = registry.value("ssd_retries_total", hop=hop, **labels)
        want = float(getattr(metrics, attr))
        if got != want:
            problems.append(f"ssd_retries_total{{hop={hop}}}: "
                            f"registry {got} != metrics {want}")
    hist = registry.hist("ssd_read_latency_us", **labels)
    if (hist.to_dict() if hist is not None else None) != \
            metrics.read_latency_hist.to_dict():
        problems.append("ssd_read_latency_us: histogram mismatch")
    return problems
