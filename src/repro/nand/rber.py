"""Calibrated raw-bit-error-rate (RBER) model.

The paper characterises 160 real 3D TLC chips and finds (Fig. 4) that a
page's RBER crosses the ECC correction capability (0.0085 for the 4-KiB
QC-LDPC of Table I) after a retention time that shrinks with P/E cycles:
roughly 17 days fresh, 14 days at 200 P/E, 10 days at 500, 8 days at 1K.

We model the median page as

    RBER(pe, t) = r_prog(pe) + (cap - r_prog(pe)) * (t / T_cross(pe)) ** alpha
                  + r_disturb(pe) * reads

so that, by construction, the median page crosses the capability exactly at
``T_cross(pe)`` — the quantity the paper measured — while process variation
(see :mod:`.variation`) spreads the crossing time across blocks and pages to
produce the distributions of Fig. 4.

``T_cross`` is log-linear-interpolated between the configured anchors and
extrapolated geometrically beyond them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..config import EccConfig, ReliabilityConfig
from ..errors import ConfigError
from ..perf import cache as _perf_cache
from ..perf.cache import MemoCache
from .variation import VariationModel, _unit_to_standard_normal


@dataclass(frozen=True, slots=True)
class PageState:
    """Operating condition of a page at read time."""

    pe_cycles: float
    retention_days: float
    read_count: int = 0

    def __post_init__(self) -> None:
        if self.pe_cycles < 0 or self.retention_days < 0 or self.read_count < 0:
            raise ConfigError("PageState fields must be non-negative")


class RberModel:
    """RBER as a function of P/E cycles, retention age and read count.

    Parameters
    ----------
    reliability:
        Calibration constants (anchors, exponents, variation sigmas).
    ecc:
        Supplies the correction capability the anchors are expressed
        against.
    seed:
        Seed for the deterministic process-variation hash.
    """

    def __init__(
        self,
        reliability: Optional[ReliabilityConfig] = None,
        ecc: Optional[EccConfig] = None,
        seed: int = 0,
    ):
        self.reliability = reliability or ReliabilityConfig()
        self.ecc = ecc or EccConfig()
        self.variation = VariationModel(self.reliability, seed=seed)
        self._anchors = list(self.reliability.t_cross_anchors)
        # --- hot-path memo caches (repro.perf; exact keys, bit-identical) ---
        # The simulator queries one fixed P/E point millions of times, so
        # the log/exp anchor interpolation and the per-page variation
        # hashes are ideal memoization targets.
        self._anchor_cache = MemoCache("rber.anchor_cross_days",
                                       max_entries=4096)
        self._prog_cache = MemoCache("rber.rber_prog", max_entries=4096)
        self._disturb_cache = MemoCache("rber.disturb_per_read",
                                        max_entries=4096)
        self._factor_cache = MemoCache("rber.variation_factor")
        # per block: (block factor, folded page-hash prefix), so a new
        # page of a seen block folds one hash key instead of six
        self._block_factor_cache = MemoCache("rber.block_factor")
        # The anchors describe the weakest pages (the `anchor_quantile` of
        # the crossing distribution); the median page crosses later by the
        # inverse lognormal quantile of the combined variation sigma.
        sigma_total = math.hypot(
            self.reliability.block_variation_sigma,
            self.reliability.page_variation_sigma,
        )
        z_anchor = _unit_to_standard_normal(self.reliability.anchor_quantile)
        self._median_scale = math.exp(-z_anchor * sigma_total)

    # --- calibration curves ----------------------------------------------------

    def invalidate_caches(self) -> None:
        """Drop all memoized values (the model itself is immutable; use
        after monkeypatching config in tests, or for memory pressure)."""
        for cache in self._caches():
            cache.invalidate()

    def cache_stats(self) -> List[dict]:
        """JSON-ready hit/miss counters of this model's memo caches."""
        return [c.stats().to_dict() for c in self._caches()]

    def _caches(self) -> List[MemoCache]:
        return [self._anchor_cache, self._prog_cache, self._disturb_cache,
                self._factor_cache, self._block_factor_cache]

    def anchor_cross_days(self, pe_cycles: float) -> float:
        """Retention time (days) at which the weakest (``anchor_quantile``)
        pages cross the ECC correction capability — Fig. 4's left edge.
        Memoized on the exact wear level (inline probe: a simulation runs
        at one wear point, so this is all hits after the first call)."""
        cache = self._anchor_cache
        if _perf_cache._ENABLED:
            days = cache._table.get(pe_cycles)
            if days is not None:
                cache.hits += 1
                return days
        return cache.get_or_compute(
            pe_cycles, lambda: self._anchor_cross_days_uncached(pe_cycles)
        )

    def _anchor_cross_days_uncached(self, pe_cycles: float) -> float:
        if pe_cycles < 0:
            raise ConfigError("pe_cycles must be non-negative")
        anchors = self._anchors
        if pe_cycles <= anchors[0][0]:
            return anchors[0][1]
        for (pe0, d0), (pe1, d1) in zip(anchors, anchors[1:]):
            if pe_cycles <= pe1:
                # log-linear in days between anchors
                frac = (pe_cycles - pe0) / (pe1 - pe0)
                return math.exp(
                    math.log(d0) + frac * (math.log(d1) - math.log(d0))
                )
        # geometric extrapolation from the last two anchors
        (pe0, d0), (pe1, d1) = anchors[-2], anchors[-1]
        slope = (math.log(d1) - math.log(d0)) / (pe1 - pe0)
        return math.exp(math.log(d1) + slope * (pe_cycles - pe1))

    def t_cross_days(self, pe_cycles: float) -> float:
        """Retention time (days) at which the *median* page's RBER reaches
        the ECC correction capability, at the given wear level."""
        return self.anchor_cross_days(pe_cycles) * self._median_scale

    def rber_prog(self, pe_cycles: float) -> float:
        """Program-time RBER (retention age zero) of the median page.
        Memoized on the exact wear level (inline probe, see
        :meth:`anchor_cross_days`)."""
        cache = self._prog_cache
        if _perf_cache._ENABLED:
            prog = cache._table.get(pe_cycles)
            if prog is not None:
                cache.hits += 1
                return prog
        r = self.reliability
        return cache.get_or_compute(
            pe_cycles,
            lambda: r.rber_prog_fresh
            * (1.0 + r.rber_prog_pe_slope * pe_cycles / 1000.0),
        )

    def read_disturb_rber(self, pe_cycles: float, read_count: int) -> float:
        """Additive RBER contribution of repeated reads since last program.

        The per-read coefficient is memoized on the wear level; the
        ``coefficient * read_count`` product is left-associated exactly as
        the unmemoized expression evaluates, so results are bit-identical.
        """
        cache = self._disturb_cache
        if _perf_cache._ENABLED:
            per_read = cache._table.get(pe_cycles)
            if per_read is not None:
                cache.hits += 1
                return per_read * read_count
        r = self.reliability
        per_read = cache.get_or_compute(
            pe_cycles,
            lambda: r.read_disturb_per_read
            * (1.0 + r.read_disturb_pe_slope * pe_cycles / 1000.0),
        )
        return per_read * read_count

    # --- main model --------------------------------------------------------------

    def median_rber(self, state: PageState) -> float:
        """RBER of the median (factor-1) page under ``state``."""
        return self._rber_with_factor(state, 1.0)

    def page_rber(self, state: PageState, block_key: tuple, page: int = 0) -> float:
        """RBER of a specific physical page, including process variation.

        ``block_key`` is any hashable tuple of ints identifying the block
        (e.g. ``PageAddress.block_key()``); the same key always yields the
        same variation factor.
        """
        return self._rber_with_factor(state, self._page_variation(block_key, page))

    def _page_variation(self, block_key: tuple, page: int) -> float:
        """Combined block*page strength factor, memoized per physical page
        (the hash + inverse-normal evaluation is pure in (seed, key)).
        The block term and the block's folded page-hash prefix are
        memoized separately, so the first read of a new page in an
        already-seen block folds only the page into the hash."""
        key = (block_key, page)
        cache = self._factor_cache
        variation = self.variation
        if _perf_cache._ENABLED:
            table = cache._table
            factor = table.get(key)
            if factor is not None:
                cache.hits += 1
                return factor
            # Hand-inlined miss path (get_or_compute's counter discipline
            # on both tables): probe the block entry, then combine.
            cache.misses += 1
            bcache = self._block_factor_cache
            btable = bcache._table
            block = btable.get(block_key)
            if block is None:
                bcache.misses += 1
                block = (variation.block_factor(block_key),
                         variation.page_prefix(block_key))
                if len(btable) >= bcache.max_entries:
                    btable.clear()
                    bcache.evictions += 1
                btable[block_key] = block
            else:
                bcache.hits += 1
            factor = block[0] * variation.page_factor_at(block[1], page)
            if len(table) >= cache.max_entries:
                table.clear()
                cache.evictions += 1
            table[key] = factor
            return factor
        # caches off: both lookups miss and every hash runs in full
        cache.misses += 1
        self._block_factor_cache.misses += 1
        return (variation.block_factor(block_key)
                * variation.page_factor(block_key, page))

    def rber_with_strength(self, state: PageState, strength_factor: float) -> float:
        """RBER of a page with an explicit process-variation strength factor
        (1.0 = median page; larger = more reliable)."""
        return self._rber_with_factor(state, strength_factor)

    def _rber_with_factor(self, state: PageState, strength_factor: float) -> float:
        # ``base + disturb`` is the model's left-to-right sum
        # ``(r_prog + retention_term) + disturb``.
        base = self._retention_base(
            state.pe_cycles, state.retention_days, strength_factor
        )
        rber = base + self.read_disturb_rber(state.pe_cycles, state.read_count)
        # physical ceiling: a completely scrambled page is 50% wrong
        return min(rber, 0.5)

    def _retention_base(
        self, pe_cycles: float, retention_days: float, strength_factor: float
    ) -> float:
        cap = self.ecc.correction_capability
        alpha = self.reliability.retention_exponent
        r_prog = min(self.rber_prog(pe_cycles), cap * 0.9)
        t_cross = self.t_cross_days(pe_cycles) * strength_factor
        retention_term = (cap - r_prog) * (retention_days / t_cross) ** alpha
        return r_prog + retention_term

    # --- convenience -------------------------------------------------------------

    def exceeds_capability(
        self, state: PageState, block_key: tuple = (0,), page: int = 0
    ) -> bool:
        """Whether this page's RBER is beyond the off-chip ECC capability
        (i.e. a conventional read would enter the read-retry procedure)."""
        return self.page_rber(state, block_key, page) > self.ecc.correction_capability

    def crossing_days(self, pe_cycles: float, block_key: tuple, page: int = 0) -> float:
        """Retention time at which *this* page crosses the capability.

        Solves the median model for the page's variation factor; exact
        because the retention term is the only time-dependent one (read
        disturb excluded here, as in the paper's Fig. 4 methodology).
        """
        return self.t_cross_days(pe_cycles) * self._page_variation(block_key, page)
