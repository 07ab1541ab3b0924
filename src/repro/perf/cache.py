"""Exact-key memoization caches for the simulator's per-read hot path.

Some pure functions are evaluated over and over with the *same*
arguments.  :class:`MemoCache` memoizes those that remain: the cold
retention age of a logical page (``reliability.cold_age``), a block's
strength factor and folded page-hash prefix (``rber.block_factor``), a
physical page's strength factor for the RBER model's direct callers
(``rber.variation_factor``), and the cell-level VTH model's curves
(``vth.*``).  What a page's address fixes lives in the simulator's
per-page dispatch route instead: the route takes the page's strength
factor once, when it is built, so a page read probes no per-page memo.
Values that are constant for a whole run, such as the RBER model's terms
at the drive's wear level, are computed once by their owner; a memo
table there would only count hits.

What fills the two tables a simulated drive uses:

* ``reliability.cold_age``: before a trace runs,
  ``SSDSimulator.run_trace`` stores the cold age of every lpn its reads
  touch, hashed in numpy (``PageReliabilitySampler.fill_cold_ages``); a
  store counts as no lookup, so each cold read is then a hit.  A read
  of an lpn the batch did not store (a custom ``submit_request`` loop,
  a full table, :func:`caches_disabled`) misses and computes it.
* ``rber.block_factor``: a route built on demand (a page written or
  moved during the run, or any page with the caches off) makes its one
  lookup here.  The routes of a trace's read footprint are built before
  the run from their own numpy hash of each block, and neither probe
  nor fill this table.

Two properties are deliberate and load-bearing:

* **Bit-identity.**  Keys are the exact call inputs (float keys compare by
  bit pattern — the finest possible quantization), and the cached value is
  whatever the underlying computation produced for those inputs.  A cache
  hit therefore returns the same float the miss path would have computed,
  so cached and uncached runs are bit-for-bit identical — asserted by
  ``tests/test_perf_equivalence.py``.
* **Bounded memory.**  When a cache reaches ``max_entries`` it is cleared
  wholesale (a generational cache): O(1) bookkeeping per lookup, no LRU
  linked-list overhead on the hot path, and a hard memory ceiling.  The
  clear is recorded in the stats as an ``evictions`` generation bump.

A cache belongs to the object that built it (a sampler or model), which
reports its counters through its own ``cache_stats()`` —
``SSDSimulator.cache_stats()`` gathers them per run, and the profile
(:mod:`repro.perf.profile`) prints them.  A global
switch (:func:`caches_disabled`) turns all lookups into forced misses
that also skip the store — the reference path used by the equivalence
tests and the ``bench-gate`` speedup measurements.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterator

from ..errors import ConfigError

#: Global enable flag — flipped by :func:`caches_disabled` only.
_ENABLED = True

#: Sentinel distinguishing "not cached" from a cached ``None``.
_MISS = object()


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of one cache's counters."""

    name: str
    hits: int
    misses: int
    entries: int
    max_entries: int
    evictions: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction in [0, 1]; 0.0 for a never-queried cache."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "max_entries": self.max_entries,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class MemoCache:
    """A named, bounded, stats-tracking memo table.

    Use :meth:`get_or_compute` on the hot path.  The cached functions are
    pure in their keys for the owner's lifetime, so a table only fills and
    evicts.  Not thread-safe by design — each sampler owns its caches and
    the campaign layer parallelises at process granularity.
    """

    __slots__ = ("name", "max_entries", "hits", "misses", "evictions",
                 "_table")

    def __init__(self, name: str, max_entries: int = 1 << 16):
        if max_entries < 1:
            raise ConfigError("max_entries must be >= 1")
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._table: Dict[Hashable, Any] = {}

    def __len__(self) -> int:
        return len(self._table)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing (and storing) it
        on a miss.  With caches globally disabled, always computes and
        never stores."""
        if not _ENABLED:
            self.misses += 1
            return compute()
        value = self._table.get(key, _MISS)
        if value is not _MISS:
            self.hits += 1
            return value
        self.misses += 1
        value = compute()
        if len(self._table) >= self.max_entries:
            # generational eviction: drop everything, O(1) amortised
            self._table.clear()
            self.evictions += 1
        self._table[key] = value
        return value

    def stats(self) -> CacheStats:
        return CacheStats(
            name=self.name,
            hits=self.hits,
            misses=self.misses,
            entries=len(self._table),
            max_entries=self.max_entries,
            evictions=self.evictions,
        )


def caches_enabled() -> bool:
    """Whether hot-path memoization is currently active."""
    return _ENABLED


@contextmanager
def caches_disabled() -> Iterator[None]:
    """Force every :class:`MemoCache` into compute-always mode.

    This is the *reference* execution mode: identical arithmetic, no
    memoization.  The equivalence suite runs each scenario once inside
    this context and once outside and asserts bit-identical results; the
    bench gate uses it as the "before" timing.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous

