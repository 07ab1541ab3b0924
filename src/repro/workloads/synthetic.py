"""Synthetic stand-ins for the paper's eight evaluation traces.

Table II characterises each trace by its **read ratio** (fraction of
requests that are reads) and its **cold read ratio** (fraction of reads to
pages never updated during the trace).  The generator realises those
moments with a two-region layout:

* a large *cold region* holding data written before the measured window —
  reads land there with probability ``cold_read_ratio`` and writes never
  touch it;
* a small *hot region* where the remaining reads and all writes
  concentrate (Zipf-skewed, as cloud block traces are).

Arrival timestamps follow a Poisson process; the closed-loop driver ignores
them, the timed replayer honours them.
"""

from __future__ import annotations

import math
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..errors import ConfigError, TraceError
from ..rng import SeedLike, make_rng
from ..units import KIB
from .trace import READ, WRITE, IORequest, Trace


@dataclass(frozen=True)
class WorkloadSpec:
    """Target characteristics of one named workload (Table II)."""

    name: str
    read_ratio: float
    cold_read_ratio: float
    #: request-size distribution: sizes (bytes) and weights
    sizes: Sequence[int] = (16 * KIB, 32 * KIB, 64 * KIB, 128 * KIB, 256 * KIB)
    size_weights: Sequence[float] = (0.35, 0.25, 0.2, 0.12, 0.08)
    #: fraction of the logical space that is the hot (written) region
    hot_fraction: float = 0.10
    #: Zipf-like skew of hot-region placement (0 = uniform)
    hot_skew: float = 0.9
    #: mean inter-arrival time in microseconds (Poisson)
    mean_interarrival_us: float = 20.0

    def __post_init__(self) -> None:
        if not 0 <= self.read_ratio <= 1 or not 0 <= self.cold_read_ratio <= 1:
            raise ConfigError("ratios must be in [0, 1]")
        if len(self.sizes) != len(self.size_weights):
            raise ConfigError("sizes and size_weights must align")
        if not 0 < self.hot_fraction < 1:
            raise ConfigError("hot_fraction must be in (0, 1)")


#: Table II of the paper.
WORKLOADS: Dict[str, WorkloadSpec] = {
    "Ali2": WorkloadSpec("Ali2", read_ratio=0.27, cold_read_ratio=0.50),
    "Ali46": WorkloadSpec("Ali46", read_ratio=0.34, cold_read_ratio=0.75),
    "Ali81": WorkloadSpec("Ali81", read_ratio=0.43, cold_read_ratio=0.74),
    "Ali121": WorkloadSpec("Ali121", read_ratio=0.92, cold_read_ratio=0.70),
    "Ali124": WorkloadSpec("Ali124", read_ratio=0.96, cold_read_ratio=0.79),
    "Ali295": WorkloadSpec("Ali295", read_ratio=0.42, cold_read_ratio=0.73),
    "Sys0": WorkloadSpec("Sys0", read_ratio=0.70, cold_read_ratio=0.82),
    "Sys1": WorkloadSpec("Sys1", read_ratio=0.72, cold_read_ratio=0.83),
}


def workload_names() -> list:
    """Names of the eight paper workloads, in Table-II order."""
    return list(WORKLOADS.keys())


def workload_spec(name: str) -> WorkloadSpec:
    """The Table-II workload ``name``; ConfigError lists the valid ones."""
    if name not in WORKLOADS:
        raise ConfigError(f"unknown workload {name!r}; valid workloads: "
                          f"{', '.join(WORKLOADS)}")
    return WORKLOADS[name]


def _zipf_page(rng: np.random.Generator, n_pages: int, skew: float) -> int:
    """A Zipf-skewed page index in [0, n_pages) via inverse sampling on a
    bounded Pareto; falls back to uniform for skew == 0."""
    if skew <= 0:
        return int(rng.integers(0, n_pages))
    u = rng.random()
    # bounded Pareto over [1, n_pages]
    h = 1.0 - (1.0 - (1.0 / n_pages) ** skew) * u
    x = h ** (-1.0 / skew)
    idx = int((x - 1.0) / (n_pages - 1) * n_pages) if n_pages > 1 else 0
    return min(idx, n_pages - 1)


def generate(
    spec_or_name,
    n_requests: int = 20000,
    user_pages: int = 1 << 20,
    page_size: int = 16 * KIB,
    seed: SeedLike = None,
) -> Trace:
    """Generate a synthetic trace matching ``spec_or_name``.

    ``user_pages`` is the logical space (in 16-KiB pages) of the target
    device; the cold/hot regions partition it.  The generator writes every
    hot page at least once early (so hot reads are genuinely "updated during
    the simulation"), keeping the measured cold-read ratio on target.
    Without a ``seed`` the stream is seeded from a CRC-32 of the workload
    name, so the trace is the same in every process.
    """
    spec = (workload_spec(spec_or_name) if isinstance(spec_or_name, str)
            else spec_or_name)
    if n_requests < 1:
        raise TraceError("n_requests must be >= 1")
    if user_pages < 16:
        raise TraceError("user_pages too small to partition")
    rng = make_rng(seed if seed is not None
                   else zlib.crc32(spec.name.encode("utf-8")))

    hot_pages = max(4, int(user_pages * spec.hot_fraction))
    cold_pages = user_pages - hot_pages
    hot_base = cold_pages  # hot region sits above the cold region

    sizes = [int(size) for size in np.array(spec.sizes)]
    weights = np.array(spec.size_weights, dtype=float)
    if not (np.isfinite(weights).all() and (weights >= 0).all()
            and weights.sum() > 0):
        raise ConfigError(f"{spec.name}: size_weights must be finite, "
                          "non-negative and sum to more than 0")
    weights = weights / weights.sum()
    # the CDF numpy's Generator.choice(sizes, p=weights) rebuilds on every
    # call: one uniform draw bisected into it picks the same index from
    # the same stream position
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()

    requests = []
    t = 0.0
    for _ in range(n_requests):
        t += float(rng.exponential(spec.mean_interarrival_us))
        size = sizes[bisect_right(cdf, rng.random())]
        n_pages = max(1, math.ceil(size / page_size))
        if rng.random() < spec.read_ratio:
            op = READ
            if rng.random() < spec.cold_read_ratio:
                page = int(rng.integers(0, max(cold_pages - n_pages, 1)))
            else:
                page = hot_base + _zipf_page(rng, max(hot_pages - n_pages, 1),
                                             spec.hot_skew)
        else:
            op = WRITE
            page = hot_base + _zipf_page(rng, max(hot_pages - n_pages, 1),
                                         spec.hot_skew)
        requests.append(
            IORequest(
                timestamp_us=t,
                op=op,
                offset_bytes=page * page_size,
                size_bytes=size,
            )
        )
    return Trace(requests, name=spec.name)
