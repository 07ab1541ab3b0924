"""Hot-path performance layer: memo caches, reference kernels, profiling,
and the bench-regression gate.

* :mod:`repro.perf.cache` — exact-key memoization with stats and the
  :func:`~repro.perf.cache.caches_disabled` reference mode.
* :mod:`repro.perf.kernels` — the seed repository's scalar kernels, kept
  as executable ground truth for equivalence tests and speedup timing.
* :mod:`repro.perf.profile` — cProfile harness with per-subsystem phase
  buckets, plus the run's simulated busy time per resource and tag, read
  off the resources' counters.
* :mod:`repro.perf.bench_gate` — the pinned benchmark suite behind the
  ``python -m repro.perf`` CLI (``record`` / ``check`` / ``profile``),
  producing ``BENCH_baseline.json`` / ``BENCH_current.json``.
"""

from .cache import (  # noqa: F401
    CacheStats,
    MemoCache,
    caches_disabled,
    caches_enabled,
)

__all__ = [
    "CacheStats",
    "MemoCache",
    "caches_disabled",
    "caches_enabled",
]
