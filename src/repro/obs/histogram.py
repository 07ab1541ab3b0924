"""Fixed-bucket log-scaled latency histograms.

The simulator used to keep every request latency in an unbounded
``List[float]`` — fine for a 600-request regression run, fatal for the
million-request campaigns the roadmap targets.  :class:`LatencyHistogram`
replaces it with O(1) memory: a fixed grid of logarithmic buckets
(``buckets_per_decade`` per factor of 10 between ``lo_us`` and ``hi_us``)
plus exact ``count`` / ``sum`` / ``min`` / ``max`` side counters.

Percentiles use the same *nearest-rank* convention as
:func:`repro.ssd.metrics.percentile` and are exact at both extremes (the
reported value is clamped to the tracked min/max); interior quantiles are
accurate to one bucket width — :attr:`LatencyHistogram.relative_error`,
about 3.7% at the default 64 buckets per decade.  Recording is RNG-free
and order-independent, so two runs that observe the same multiset of
latencies serialise to identical histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import SimulationError

#: Default bucket grid: 0.1 us .. 10 s covers everything an SSD read or
#: write can plausibly take, at ~3.7% relative resolution.
DEFAULT_LO_US = 0.1
DEFAULT_HI_US = 1e7
DEFAULT_BUCKETS_PER_DECADE = 64


@dataclass
class LatencyHistogram:
    """Streaming latency distribution with fixed logarithmic buckets."""

    lo_us: float = DEFAULT_LO_US
    hi_us: float = DEFAULT_HI_US
    buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE
    counts: Dict[int, int] = field(default_factory=dict)
    underflow: int = 0
    overflow: int = 0
    count: int = 0
    sum_us: float = 0.0
    min_us: Optional[float] = None
    max_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.lo_us <= 0 or self.hi_us <= self.lo_us:
            raise SimulationError(
                f"histogram range must satisfy 0 < lo < hi, "
                f"got [{self.lo_us}, {self.hi_us}]"
            )
        if self.buckets_per_decade < 1:
            raise SimulationError("buckets_per_decade must be >= 1")
        #: grid size, fixed with the grid (a plain attribute, not a field,
        #: so ``==`` and :meth:`to_dict` see only the grid itself)
        self.n_buckets = math.ceil(
            math.log10(self.hi_us / self.lo_us) * self.buckets_per_decade
        )

    # --- geometry ---------------------------------------------------------

    @property
    def relative_error(self) -> float:
        """Worst-case relative error of an interior percentile (one bucket)."""
        return 10.0 ** (1.0 / self.buckets_per_decade) - 1.0

    def bucket_index(self, value_us: float) -> int:
        """Grid index of a value inside [lo_us, hi_us) (no range check)."""
        return int(math.floor(
            math.log10(value_us / self.lo_us) * self.buckets_per_decade
        ))

    def bucket_upper_edge(self, index: int) -> float:
        return self.lo_us * 10.0 ** ((index + 1) / self.buckets_per_decade)

    # --- recording --------------------------------------------------------

    def record(self, value_us: float) -> None:
        """Fold one latency sample into the histogram (O(1))."""
        # `not >=` also rejects NaN; +inf would pass it and poison
        # sum_us/max_us (and every percentile derived from them) forever
        if not value_us >= 0.0 or not math.isfinite(value_us):
            raise SimulationError(
                f"latency must be finite and >= 0, got {value_us!r}")
        self.count += 1
        self.sum_us += value_us
        if self.min_us is None or value_us < self.min_us:
            self.min_us = value_us
        if self.max_us is None or value_us > self.max_us:
            self.max_us = value_us
        if value_us < self.lo_us:
            self.underflow += 1
            return
        index = self.bucket_index(value_us)
        if index >= self.n_buckets:
            self.overflow += 1
            return
        self.counts[index] = self.counts.get(index, 0) + 1

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram (same grid) into this one."""
        if (self.lo_us, self.hi_us, self.buckets_per_decade) != (
                other.lo_us, other.hi_us, other.buckets_per_decade):
            raise SimulationError("cannot merge histograms with different grids")
        for index, n in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + n
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.count += other.count
        self.sum_us += other.sum_us
        for bound in ("min_us", "max_us"):
            theirs = getattr(other, bound)
            if theirs is None:
                continue
            ours = getattr(self, bound)
            pick = min if bound == "min_us" else max
            setattr(self, bound, theirs if ours is None else pick(ours, theirs))

    # --- queries ----------------------------------------------------------

    def mean(self) -> float:
        if self.count == 0:
            raise SimulationError("no samples for mean")
        return self.sum_us / self.count

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile for q in (0, 100].

        Matches the list-based :func:`repro.ssd.metrics.percentile`
        convention: the value whose rank is ``ceil(q/100 * count)``.  The
        returned value is the containing bucket's upper edge clamped into
        ``[min_us, max_us]`` — exact at the extremes, within
        :attr:`relative_error` everywhere else.  q = 0 is rejected, like
        the list path: nearest-rank is undefined there.
        """
        if self.count == 0:
            raise SimulationError("no samples for percentile")
        if not 0 < q <= 100:
            raise SimulationError(
                f"percentile q must be in (0, 100], got {q!r}"
            )
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = self.underflow
        if rank <= seen:
            return float(self.min_us)
        for index in sorted(self.counts):
            seen += self.counts[index]
            if rank <= seen:
                edge = self.bucket_upper_edge(index)
                return float(min(max(edge, self.min_us), self.max_us))
        return float(self.max_us)  # rank landed in the overflow bucket

    # --- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible dict; :meth:`from_dict` round-trips exactly.

        Bucket counts are stored sparsely as ``[index, count]`` pairs in
        index order, so empty histograms serialise to a few bytes.
        """
        return {
            "lo_us": self.lo_us,
            "hi_us": self.hi_us,
            "buckets_per_decade": self.buckets_per_decade,
            "counts": [[i, self.counts[i]] for i in sorted(self.counts)],
            "underflow": self.underflow,
            "overflow": self.overflow,
            "count": self.count,
            "sum_us": self.sum_us,
            "min_us": self.min_us,
            "max_us": self.max_us,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyHistogram":
        """Rebuild from :meth:`to_dict` output, ignoring unknown keys."""
        return cls(
            lo_us=data.get("lo_us", DEFAULT_LO_US),
            hi_us=data.get("hi_us", DEFAULT_HI_US),
            buckets_per_decade=data.get("buckets_per_decade",
                                        DEFAULT_BUCKETS_PER_DECADE),
            counts={int(i): int(n) for i, n in data.get("counts", [])},
            underflow=int(data.get("underflow", 0)),
            overflow=int(data.get("overflow", 0)),
            count=int(data.get("count", 0)),
            sum_us=float(data.get("sum_us", 0.0)),
            min_us=data.get("min_us"),
            max_us=data.get("max_us"),
        )
