"""The fleet rollup: per-policy sums of the counters the simulator keeps.

:class:`FleetAggregator` folds every cell of a campaign (fresh, cached or
replayed from a ledger) into, per policy: the ok, failed and degraded
cell counts; the sums of the :data:`SUMMED_FIELDS` of
:class:`~repro.ssd.metrics.SimMetrics` and of the
:class:`~repro.ssd.metrics.ChannelUsage` fields (the Fig.-18 channel
time); and the merged read and write latency histograms (the Fig.-19
tails).  It holds no copy of the metrics to reconcile with them.

One fold serves both entry points: :meth:`FleetAggregator.observe` folds
a result, and :meth:`FleetAggregator.observe_record` folds the share of
it that :func:`rollup_share` writes into the cell's telemetry record
(:func:`repro.campaign.progress.cell_report`), so a tailed campaign log
rebuilds the same rollup.

The export names live in one table, :data:`FAMILIES`.
:meth:`FleetAggregator.families` lays the rollup out in the schema-1
family layout that :meth:`~FleetAggregator.to_dict`,
:func:`~repro.obs.dashboard.prometheus_text` and
:func:`~repro.obs.dashboard.registry_jsonl` write and
:meth:`~FleetAggregator.from_dict` parses back.

Import discipline: this module never imports :mod:`repro.ssd` or
:mod:`repro.campaign` (those layers import *us*); outcomes are
duck-typed.
"""

from __future__ import annotations

import json
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..errors import ConfigError
from .histogram import LatencyHistogram

#: Bump when the serialised rollup layout changes meaning.
REGISTRY_SCHEMA_VERSION = 1


class Family(NamedTuple):
    """One metric family of the export table."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    #: the label after ``policy`` ("" for none)
    label: str
    #: (label value, field read) of each series, in label-value order
    series: Tuple[Tuple[str, str], ...]

    @property
    def label_names(self) -> Tuple[str, ...]:
        return ("policy", self.label) if self.label else ("policy",)


def _single(name: str, field: str, help: str,
            kind: str = "counter") -> Family:
    return Family(name, kind, help, "", (("", field),))


#: Every family of the rollup, by name.  A series reads a cell count
#: (:data:`CELL_COUNTS`), a summed SimMetrics field, a ChannelUsage field
#: (:data:`CHANNEL_FIELDS`) or a latency histogram.
FAMILIES: Tuple[Family, ...] = (
    Family("fleet_cells_total", "counter",
           "campaign cells by policy and outcome",
           "status", (("failed", "failed"), ("ok", "ok"))),
    _single("fleet_degraded_cells_total", "degraded",
            "cells that served reads in degraded mode"),
    Family("ssd_channel_time_us_total", "counter",
           "aggregate channel time by Fig.-18 tag",
           "tag", (("COR", "cor"), ("ECCWAIT", "eccwait"), ("GC", "gc"),
                   ("IDLE", "idle"), ("UNCOR", "uncor"),
                   ("WRITE", "write"))),
    _single("ssd_degraded_reads_total", "degraded_reads",
            "reads absorbed in degraded mode"),
    _single("ssd_disturb_relocations_total", "disturb_relocations",
            "read-disturb block rewrites"),
    _single("ssd_elapsed_us", "elapsed_us", "simulated wall clock",
            kind="gauge"),
    _single("ssd_faults_absorbed_total", "faults_absorbed",
            "faulted reads that still completed cleanly"),
    _single("ssd_faults_injected_total", "faults_injected", "fault firings"),
    _single("ssd_gc_page_copies_total", "gc_page_copies",
            "GC page relocations"),
    _single("ssd_host_read_bytes_total", "host_read_bytes",
            "bytes returned to the host"),
    _single("ssd_host_write_bytes_total", "host_write_bytes",
            "bytes accepted from the host"),
    _single("ssd_page_reads_total", "page_reads", "page reads issued"),
    _single("ssd_page_writes_total", "page_writes", "page programs issued"),
    _single("ssd_read_latency_us", "read_latency_hist", "host read latency",
            kind="histogram"),
    _single("ssd_retired_blocks_total", "retired_blocks",
            "grown-bad-block retirements"),
    Family("ssd_retries_total", "counter", "read retries by resolving hop",
           "hop", (("controller", "retried_reads"),
                   ("fault", "fault_retries"),
                   ("in_die", "in_die_retries"))),
    _single("ssd_rp_mispredicts_total", "rp_mispredicts",
            "read-predictor verdicts contradicted by the decode outcome"),
    _single("ssd_senses_total", "total_senses", "NAND sense operations"),
    _single("ssd_uncorrectable_transfers_total", "uncorrectable_transfers",
            "doomed page transfers that crossed the channel"),
    _single("ssd_write_latency_us", "write_latency_hist",
            "host write latency", kind="histogram"),
)

_FAMILY_BY_NAME = {family.name: family for family in FAMILIES}

#: The cell counts a policy keeps (the ``fleet_*`` families).
CELL_COUNTS = ("ok", "failed", "degraded")
#: The ChannelUsage fields a policy sums.
CHANNEL_FIELDS = ("cor", "uncor", "write", "gc", "eccwait", "idle")
_HIST_FIELDS = ("read_latency_hist", "write_latency_hist")
#: The SimMetrics fields a policy sums: every counter in the table and
#: ``elapsed_us``.
SUMMED_FIELDS: Tuple[str, ...] = tuple(
    field for family in FAMILIES for _value, field in family.series
    if field not in CELL_COUNTS + CHANNEL_FIELDS + _HIST_FIELDS)
_SUMS = SUMMED_FIELDS + CHANNEL_FIELDS
_DEGRADED_READS = _SUMS.index("degraded_reads")
_summed_of = attrgetter(*SUMMED_FIELDS)
_channel_of = attrgetter(*CHANNEL_FIELDS)


def rollup_share(outcome) -> dict:
    """A result's share of the rollup, JSON-native.

    ``SimulationResult.to_dict``'s layout cut down to what the rollup
    reads: the :data:`SUMMED_FIELDS` and both latency histograms under
    ``metrics``, the :data:`CHANNEL_FIELDS` under ``channel_usage``.
    """
    metrics = outcome.metrics
    summed = dict(zip(SUMMED_FIELDS, _summed_of(metrics)))
    for field in _HIST_FIELDS:
        summed[field] = getattr(metrics, field).to_dict()
    return {"metrics": summed,
            "channel_usage": dict(zip(CHANNEL_FIELDS,
                                      _channel_of(outcome.channel_usage)))}


def _parse_json(text: str, source, what: str, kinds=dict):
    """``text``, read from ``source``, as a JSON value of type ``kinds``
    (an object by default).  The CLIs' file inputs are outside input:
    text that is not such a value is a :class:`ConfigError` naming
    ``source`` and the ``what`` it should hold."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # not JSON
        raise ConfigError(f"{source} is not a JSON {what}: {exc}") from None
    if not isinstance(data, kinds):
        raise ConfigError(f"{source} is not a JSON {what}: it holds a "
                          f"{type(data).__name__}")
    return data


def check_json_types(data: dict, what: str, types: Dict[str, tuple]) -> None:
    """Each field of ``data`` that ``types`` names holds one of its JSON
    types (``type(None)`` admits null; true/false is no number).  A field
    of another type is a :class:`ConfigError` naming ``what``, not the
    ``TypeError`` it would raise deeper in."""
    for name, value in data.items():
        kinds = types.get(name)
        if kinds is not None and (isinstance(value, bool)
                                  or not isinstance(value, kinds)):
            expected = " or ".join("null" if kind is type(None)
                                   else kind.__name__ for kind in kinds)
            raise ConfigError(f"{what} field {name!r} must be {expected}, "
                              f"got {value!r}")


def _read_text(path, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, ValueError) as exc:  # unreadable, or not UTF-8 text
        raise ConfigError(f"{path} is not a JSON {what}: {exc}") from None


def read_json_file(path, what: str, kinds=dict):
    """The JSON value a file holds, by :func:`_parse_json`'s rule: a saved
    rollup or ``fleet run`` payload, a fleet spec, SLO specs."""
    return _parse_json(_read_text(path, what), path, what, kinds)


def read_json_lines(path, what: str) -> List[dict]:
    """The JSON objects of a JSON-lines file such as a campaign telemetry
    log, one per complete line, each by :func:`_parse_json`'s rule and
    named ``path:line``.  An unterminated last line is a record still
    being written and is left out, as the run ledger leaves out a torn
    tail."""
    lines = _read_text(path, what).split("\n")
    return [_parse_json(line, f"{path}:{number}", what)
            for number, line in enumerate(lines[:-1], start=1)
            if line.strip()]


def _measure(rollup: dict) -> None:
    """Give a policy its sums and histograms (its ``ssd_*`` series)."""
    if "elapsed_us" not in rollup:
        rollup.update(dict.fromkeys(_SUMS, 0.0))
        for field in _HIST_FIELDS:
            rollup[field] = LatencyHistogram()


class FleetAggregator:
    """Per-policy rollup of a running (or finished) campaign.

    Campaigns fold outcomes in spec order, so serial, parallel and resumed
    runs over the same grid produce identical rollups.
    """

    def __init__(self):
        #: policy -> field -> value: the CELL_COUNTS (floats, as written)
        #: and, once it has an ok cell, the _SUMS and both histograms
        self._rollups: Dict[str, dict] = {}
        self.cells = self.cached = self.failed = 0

    # --- feeding ----------------------------------------------------------

    def _policy(self, policy: str) -> dict:
        return self._rollups.setdefault(policy,
                                        dict.fromkeys(CELL_COUNTS, 0.0))

    def _fold(self, policy: str, cached: bool,
              values: Optional[Tuple[float, ...]] = None,
              read_hist: Optional[LatencyHistogram] = None,
              write_hist: Optional[LatencyHistogram] = None) -> None:
        """Fold one cell: its sums (``_SUMS`` order) and histograms, or
        ``values=None`` for a failed cell."""
        rollup = self._policy(policy)
        self.cells += 1
        if cached:
            self.cached += 1
        if values is None:
            self.failed += 1
            rollup["failed"] += 1
            return
        rollup["ok"] += 1
        if values[_DEGRADED_READS] > 0:
            rollup["degraded"] += 1
        _measure(rollup)
        for field, value in zip(_SUMS, values):
            rollup[field] += value
        rollup["read_latency_hist"].merge(read_hist)
        rollup["write_latency_hist"].merge(write_hist)

    def observe(self, spec, outcome, cached: bool = False) -> None:
        """Fold one finished cell in (``outcome`` is a result or failure)."""
        policy = str(getattr(spec, "policy", getattr(outcome, "policy", "?")))
        metrics = getattr(outcome, "metrics", None)
        if metrics is None:
            self._fold(policy, cached)
            return
        self._fold(policy, cached,
                   _summed_of(metrics) + _channel_of(outcome.channel_usage),
                   metrics.read_latency_hist, metrics.write_latency_hist)

    def observe_record(self, record: dict) -> None:
        """Fold one JSONL telemetry ``cell`` record in (see
        :func:`repro.campaign.progress.cell_report`): an ok cell's
        :func:`rollup_share`, or a failed cell."""
        if record.get("event") != "cell":
            return
        label = record.get("label", "?/?/?")
        policy = str(record.get("policy", label.rsplit("/", 1)[-1]))
        cached = bool(record.get("cached"))
        if not record.get("ok"):
            self._fold(policy, cached)
            return
        try:
            metrics = record["rollup"]["metrics"]
            usage = record["rollup"]["channel_usage"]
            values = (tuple(metrics[f] for f in SUMMED_FIELDS)
                      + tuple(usage[f] for f in CHANNEL_FIELDS))
            read_hist, write_hist = (LatencyHistogram.from_dict(metrics[f])
                                     for f in _HIST_FIELDS)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(
                f"cell record {label!r} has no rollup share to fold (missing "
                f"{exc}); logs written before cell records carried one "
                "cannot rebuild the rollup") from None
        self._fold(policy, cached, values, read_hist, write_hist)

    # --- layout and serialisation -----------------------------------------

    def families(self) -> List[Tuple[Family, List[Tuple[Tuple[str, ...],
                                                        object]]]]:
        """The rollup in the schema-1 family layout: each family with its
        ``(label values, value or histogram)`` samples in label order.  A
        ``fleet_*`` family has a series per nonzero cell count, an ``ssd_*``
        family every series of each policy that has an ok cell."""
        rollups = sorted(self._rollups.items())
        layout = []
        for family in FAMILIES:
            counts = family.series[0][1] in CELL_COUNTS  # a fleet_* family
            samples = [
                ((policy, value) if family.label else (policy,),
                 rollup[field])
                for policy, rollup in rollups
                for value, field in family.series
                if field in rollup and (not counts or rollup[field])]
            if samples or (counts and rollups):
                layout.append((family, samples))
        return layout

    def to_dict(self) -> dict:
        """The schema-1 JSON state; :meth:`from_dict` round-trips it."""
        families = []
        for family, samples in self.families():
            key = "hist" if family.kind == "histogram" else "value"
            families.append({
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "grid": {},
                "children": [
                    {"labels": list(labels),
                     key: value.to_dict() if key == "hist" else value}
                    for labels, value in samples],
            })
        return {
            "schema": REGISTRY_SCHEMA_VERSION,
            "cells": self.cells,
            "cached": self.cached,
            "failed": self.failed,
            "registry": {"schema": REGISTRY_SCHEMA_VERSION,
                         "families": families},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetAggregator":
        """Parse a saved rollup.  A saved file is outside input: a family,
        label count, cell status, retry hop or channel tag the table does
        not know, or a child without its value or histogram, is a
        :class:`ConfigError`."""
        fleet = cls()
        try:
            fleet.cells, fleet.cached, fleet.failed = (
                int(data.get(key, 0)) for key in ("cells", "cached", "failed"))
        except (TypeError, ValueError):
            raise ConfigError("a fleet rollup's cells, cached and failed are "
                              "counts (is this a `fleet run` payload?)") \
                from None
        for item in data.get("registry", {}).get("families", []):
            family = _FAMILY_BY_NAME.get(item.get("name"))
            if family is None:
                raise ConfigError(
                    f"unknown fleet rollup family {item.get('name')!r}")
            fields = dict(family.series)
            key = "hist" if family.kind == "histogram" else "value"
            for child in item.get("children", []):
                labels = child.get("labels")
                if not isinstance(labels, list) or \
                        len(labels) != len(family.label_names):
                    raise ConfigError(
                        f"{family.name}: expected labels "
                        f"{family.label_names}, got {labels!r}")
                field = fields.get(labels[1] if family.label else "")
                if field is None:
                    raise ConfigError(f"{family.name}: unknown "
                                      f"{family.label} {labels[1]!r}")
                if key not in child:
                    raise ConfigError(
                        f"{family.name}{labels!r}: child has no {key}")
                rollup = fleet._policy(str(labels[0]))
                if field not in CELL_COUNTS:
                    _measure(rollup)
                try:
                    if key == "hist":
                        rollup[field].merge(
                            LatencyHistogram.from_dict(child[key]))
                    else:
                        rollup[field] += float(child[key])
                except (TypeError, ValueError, AttributeError) as exc:
                    raise ConfigError(f"{family.name}{labels!r}: malformed "
                                      f"{key} ({exc})") from None
        return fleet

    # --- queries ----------------------------------------------------------

    def policies(self) -> List[str]:
        return sorted(self._rollups)

    def total(self, policy: str, field: str) -> float:
        """The policy's sum of one :data:`SUMMED_FIELDS` or
        :data:`CHANNEL_FIELDS` field (0.0 while it has no ok cell)."""
        if field not in _SUMS:
            raise ConfigError(f"the fleet rollup does not sum {field!r}")
        return self._rollups.get(policy, {}).get(field, 0.0)

    def read_hist(self, policy: str) -> Optional[LatencyHistogram]:
        """The policy's merged read latencies (``None`` without an ok
        cell)."""
        return self._rollups.get(policy, {}).get("read_latency_hist")

    def policy_summary(self) -> List[dict]:
        """Per-policy dashboard rows: cells, tail latency, retry rate."""
        rows = []
        for policy in self.policies():
            rollup = self._rollups[policy]
            page_reads = self.total(policy, "page_reads")
            retried = self.total(policy, "retried_reads")
            hist = self.read_hist(policy)
            row = {
                "policy": policy,
                "cells": int(rollup["ok"] + rollup["failed"]),
                "reads": int(page_reads),
                "retry_rate": retried / page_reads if page_reads else 0.0,
                "degraded_cells": int(rollup["degraded"]),
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
