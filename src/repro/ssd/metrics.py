"""Measurement plumbing: bandwidth, latency distributions, channel usage.

Channel usage follows the paper's Fig.-18 taxonomy: **COR** (transfers of
pages the decoder will accept), **UNCOR** (transfers of doomed pages —
including Sentinel's spare-cell reads and RPSSD's aborted pages),
**ECCWAIT** (channel idle *because* the decoder's input buffer is full),
and **IDLE** (everything else).  Host writes and GC relocations are tracked
separately so read-oriented comparisons stay clean.

Latency distributions are kept two ways: streaming
:class:`~repro.obs.histogram.LatencyHistogram` buckets (always on, O(1)
memory — the path million-request campaigns use) and, by default, the raw
per-request lists the original experiments were written against.  Set
the :class:`SimMetrics` field ``keep_raw_latencies`` to ``False`` (on a
simulator, ``ssd.metrics.keep_raw_latencies = False`` before the run) to
drop the raw lists; percentiles then come from the histogram at its
documented bucket resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence

from ..errors import SimulationError
from ..obs.histogram import LatencyHistogram
from ..units import bytes_per_us_to_mb_per_s


@dataclass(frozen=True)
class ChannelUsage:
    """Aggregated channel-time breakdown (absolute microseconds x channels)."""

    cor: float
    uncor: float
    write: float
    gc: float
    eccwait: float
    idle: float

    @property
    def total(self) -> float:
        return self.cor + self.uncor + self.write + self.gc + self.eccwait + self.idle

    def to_dict(self) -> Dict[str, float]:
        """JSON-compatible dict; :meth:`from_dict` round-trips exactly."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "ChannelUsage":
        """Rebuild from a dict, ignoring unknown keys.

        Tolerating extra keys is what keeps old readers working on cache
        entries written by a newer schema (forward compatibility); missing
        required keys still raise, so a truncated entry reads as corrupt.
        """
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def fractions(self) -> Dict[str, float]:
        """Normalised shares, the Fig.-18 stacked bars."""
        total = self.total
        if total <= 0:
            raise SimulationError("empty channel-usage interval")
        return {
            "COR": self.cor / total,
            "UNCOR": self.uncor / total,
            "WRITE": self.write / total,
            "GC": self.gc / total,
            "ECCWAIT": self.eccwait / total,
            "IDLE": self.idle / total,
        }


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a pre-sorted sequence.

    Nearest-rank semantics: the returned value is the element at rank
    ``ceil(q/100 * n)`` (1-based), i.e. the smallest sample such that at
    least ``q`` percent of the distribution is at or below it.  That
    definition covers ``q`` in (0, 100] only — ``q = 0`` is rejected
    instead of silently returning the minimum (which is also what any
    ``q < 100/n`` used to do via rank clamping; those small-but-positive
    quantiles legitimately resolve to the minimum, ``q = 0`` does not
    resolve to anything).
    """
    if not sorted_values:
        raise SimulationError("no samples for percentile")
    if not 0 < q <= 100:
        raise SimulationError(
            f"percentile q must be in (0, 100], got {q!r} "
            "(nearest-rank is undefined at q=0; use min() for the floor)"
        )
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


@dataclass
class SimMetrics:
    """Mutable counters filled in during a simulation run."""

    host_read_bytes: int = 0
    host_write_bytes: int = 0
    read_latencies_us: List[float] = field(default_factory=list)
    write_latencies_us: List[float] = field(default_factory=list)
    page_reads: int = 0
    page_writes: int = 0
    retried_reads: int = 0
    in_die_retries: int = 0
    uncorrectable_transfers: int = 0
    #: RP verdicts contradicted by the plan's outcome — predicted-clean
    #: pages that went on to need a retry (a predicted-dirty verdict forces
    #: the retry, so it can never be contradicted); only policies with a
    #: read predictor (RPSSD / RiFSSD) ever increment it
    rp_mispredicts: int = 0
    total_senses: int = 0
    gc_page_copies: int = 0
    disturb_relocations: int = 0
    elapsed_us: float = 0.0
    # --- fault injection & graceful degradation (repro.faults) ---
    faults_injected: int = 0      # fault firings folded into page reads
    faults_absorbed: int = 0      # faulted reads that still completed cleanly
    fault_retries: int = 0        # extra sense/transfer attempts spent on faults
    retired_blocks: int = 0       # grown-bad-block retirements
    degraded_reads: int = 0       # reads failed (absorbed) in degraded mode
    # --- history-driven policies (repro.ssd.adaptive) ---
    #: reads whose predicted starting retry level was close enough to
    #: decode on the first attempt
    adaptive_hits: int = 0
    #: reads whose predicted starting level was wrong (a full failed
    #: round was paid before the reactive walk)
    adaptive_mispredicts: int = 0
    #: JSON-native snapshot of the policy's learned state at end of run
    #: (``None`` for the static schemes)
    adaptive_state: Optional[dict] = None
    # --- streaming latency distributions (repro.obs) ---
    #: always-on fixed-bucket histograms; the O(1)-memory latency path
    read_latency_hist: LatencyHistogram = field(default_factory=LatencyHistogram)
    write_latency_hist: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: keep the exact per-request latency lists (the legacy unbounded
    #: path); disable for million-request runs
    keep_raw_latencies: bool = True

    # --- recording ---------------------------------------------------------------

    def record_read_latency(self, latency_us: float) -> None:
        self.read_latency_hist.record(latency_us)
        if self.keep_raw_latencies:
            self.read_latencies_us.append(latency_us)

    def record_write_latency(self, latency_us: float) -> None:
        self.write_latency_hist.record(latency_us)
        if self.keep_raw_latencies:
            self.write_latencies_us.append(latency_us)

    # --- serialisation -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible dict; :meth:`from_dict` round-trips exactly
        (floats survive JSON at ``repr`` precision)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, LatencyHistogram):
                value = value.to_dict()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimMetrics":
        """Rebuild from a dict, ignoring unknown keys (so cache entries
        written by a newer schema still load) and defaulting the fields a
        pre-histogram entry lacks."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        for key in ("read_latency_hist", "write_latency_hist"):
            if key in kwargs:
                kwargs[key] = LatencyHistogram.from_dict(kwargs[key])
        metrics = cls(**kwargs)
        # JSON has no tuple/list distinction; normalise to fresh lists so a
        # round-tripped instance is independent of the source dict
        metrics.read_latencies_us = [float(v) for v in metrics.read_latencies_us]
        metrics.write_latencies_us = [float(v) for v in metrics.write_latencies_us]
        if metrics.adaptive_state is not None:
            metrics.adaptive_state = {
                k: (dict(v) if isinstance(v, dict) else
                    list(v) if isinstance(v, list) else v)
                for k, v in metrics.adaptive_state.items()
            }
        return metrics

    # --- headline numbers --------------------------------------------------------

    def io_bandwidth_mb_s(self) -> float:
        """Host-visible I/O bandwidth (reads + writes), the Fig.-6/17 metric."""
        if self.elapsed_us <= 0:
            raise SimulationError("run did not advance time")
        total = self.host_read_bytes + self.host_write_bytes
        return bytes_per_us_to_mb_per_s(total / self.elapsed_us)

    def read_bandwidth_mb_s(self) -> float:
        if self.elapsed_us <= 0:
            raise SimulationError("run did not advance time")
        return bytes_per_us_to_mb_per_s(self.host_read_bytes / self.elapsed_us)

    def retry_rate(self) -> float:
        """Fraction of page reads that needed any retry."""
        if self.page_reads == 0:
            return 0.0
        return self.retried_reads / self.page_reads

    def average_extra_senses(self) -> float:
        """Mean senses per page read beyond the mandatory one (~NRR)."""
        if self.page_reads == 0:
            return 0.0
        return self.total_senses / self.page_reads - 1.0

    # --- latency distribution ---------------------------------------------------------

    def latency_summary(self) -> dict:
        """The tail-story digest: p50/p99/p999 read latency plus count,
        mean, and max.  ``None``-valued when no reads were recorded, so
        reporters can emit the keys unconditionally."""
        if self.read_latency_hist.count == 0 and not self.read_latencies_us:
            return {"count": 0, "p50_us": None, "p99_us": None,
                    "p999_us": None, "mean_us": None, "max_us": None}
        count = (len(self.read_latencies_us) if self.read_latencies_us
                 else self.read_latency_hist.count)
        mean = (sum(self.read_latencies_us) / count
                if self.read_latencies_us else self.read_latency_hist.mean())
        peak = (max(self.read_latencies_us) if self.read_latencies_us
                else self.read_latency_hist.max_us)
        return {
            "count": count,
            "p50_us": self.read_latency_percentile(50.0),
            "p99_us": self.read_latency_percentile(99.0),
            "p999_us": self.read_latency_percentile(99.9),
            "mean_us": mean,
            "max_us": peak,
        }

    def read_latency_percentile(self, q: float) -> float:
        """Nearest-rank read-latency percentile.

        Exact (raw-list path) when raw latencies are kept; otherwise the
        streaming histogram answers, accurate to one log bucket
        (:attr:`~repro.obs.histogram.LatencyHistogram.relative_error`) and
        exact at the extremes.
        """
        if self.read_latencies_us:
            return percentile(sorted(self.read_latencies_us), q)
        return self.read_latency_hist.percentile(q)
