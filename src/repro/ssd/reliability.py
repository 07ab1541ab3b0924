"""Glue between the NAND reliability model and the SSD simulator.

Responsibilities:

* give every *physical* page a deterministic RBER for the current read,
  combining scenario wear (the 0K/1K/2K P/E operating point of the
  evaluation), the page's retention age, its accumulated reads, and the
  per-block process variation of :mod:`repro.nand.variation`;
* assign retention ages: a page written during the simulation is as old as
  the simulated time since its program; a *pre-existing* page (touched
  first by a read — the paper's "cold read") carries an initial age drawn
  deterministically and uniformly from ``[0, refresh_days)``, the steady
  state of a fleet refreshed every ``refresh_days`` (the paper assumes
  monthly refresh, SecIV-B footnote 3).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..config import EccConfig, ReliabilityConfig
from ..errors import ConfigError
from ..nand.rber import PageState, RberModel
from ..nand.thermal import ThermalModel
from ..nand.variation import _fold, _hash_state, _unit
from ..perf import cache as _perf_cache
from ..perf.cache import MemoCache
from ..units import US_PER_DAY


class PageReliabilitySampler:
    """Per-read RBER oracle for the simulator.

    ``operating_temp_c`` scales all retention ages by the Arrhenius
    acceleration factor relative to the characterization reference
    temperature (:mod:`repro.nand.thermal`): a hot chassis ages the same
    calendar days into more equivalent retention."""

    def __init__(
        self,
        pe_cycles: float,
        reliability: Optional[ReliabilityConfig] = None,
        ecc: Optional[EccConfig] = None,
        seed: int = 0,
        operating_temp_c: Optional[float] = None,
        thermal: Optional[ThermalModel] = None,
    ):
        if pe_cycles < 0:
            raise ConfigError("pe_cycles must be non-negative")
        self.pe_cycles = pe_cycles
        self.reliability = reliability or ReliabilityConfig()
        self.ecc = ecc or EccConfig()
        self.model = RberModel(self.reliability, self.ecc, seed=seed)
        self.seed = seed
        #: folded hash prefix of (seed, cold-age stream): a cold-age miss
        #: folds only the lpn
        self._cold_state = _hash_state(seed, 0xC01D)
        self.thermal = thermal or ThermalModel()
        self.thermal_acceleration = (
            1.0 if operating_temp_c is None
            else self.thermal.acceleration_factor(operating_temp_c)
        )
        #: accumulated retention fast-forward (repro.ssd.refresh), in the
        #: same equivalent-days space as the cold/warm ages; cold ages are
        #: cached offset-inclusive, so advances invalidate that cache
        self.retention_offset_days = 0.0
        # cold ages are pure in (seed, lpn) and workloads re-read the same
        # logical pages constantly — memoize the hash (repro.perf)
        self._cold_age_cache = MemoCache("reliability.cold_age")
        # fused per-read fast path: everything except the read-disturb term
        # is pure in (page, retention age), so a re-read costs one lookup
        self._page_base_cache = MemoCache("reliability.page_base")
        # Bound table references for the inline probes below.  MemoCache
        # only ever clear()s its table in place, so these stay valid across
        # evictions and invalidations; neither cache can store None, so
        # ``table.get(key)`` doubles as the miss test.
        self._cold_age_table = self._cold_age_cache._table
        self._page_base_table = self._page_base_cache._table
        #: additive RBER per accumulated read at this wear level (x*1 is
        #: exact in floating point, so this equals the model's coefficient)
        self._disturb_per_read = self.model.read_disturb_rber(pe_cycles, 1)

    # --- retention ages ------------------------------------------------------------

    def cold_age_days(self, lpn: int) -> float:
        """Initial retention age of a pre-existing logical page: uniform in
        [0, refresh_days), deterministic in (seed, lpn).

        Miss path hand-inlined with :meth:`MemoCache.get_or_compute`'s
        exact counter discipline (first touch of every cold page lands
        here)."""
        cache = self._cold_age_cache
        if _perf_cache._ENABLED:
            table = self._cold_age_table
            age = table.get(lpn)
            if age is not None:
                cache.hits += 1
                return age
            cache.misses += 1
            age = self._cold_age_days_uncached(lpn)
            if len(table) >= cache.max_entries:
                table.clear()
                cache.evictions += 1
            table[lpn] = age
            return age
        return cache.get_or_compute(
            lpn, lambda: self._cold_age_days_uncached(lpn)
        )

    def _cold_age_days_uncached(self, lpn: int) -> float:
        u = _unit(_fold(self._cold_state, int(lpn)))
        age = u * self.reliability.refresh_days
        offset = self.retention_offset_days
        return age + offset if offset else age

    def warm_age_days(self, written_at_us: float, now_us: float) -> float:
        """Retention age of a page written during the simulation."""
        if now_us < written_at_us:
            raise ConfigError("read before write")
        age = (now_us - written_at_us) / US_PER_DAY
        offset = self.retention_offset_days
        return age + offset if offset else age

    # --- lifetime fast-forward (repro.ssd.refresh) ---------------------------------

    def advance_retention(self, days: float) -> None:
        """Fast-forward every page's retention age by ``days``.

        Models dwell time passing with no traffic (the campaign-epoch
        jump of :func:`repro.ssd.refresh.fast_forward`): cold and warm
        ages both shift by the accumulated offset.  Cold ages are cached
        offset-inclusive, so the memo table is dropped here.
        """
        if days < 0:
            raise ConfigError(f"retention advance must be >= 0, got {days!r}")
        if days == 0:
            return
        self.retention_offset_days += days
        self._cold_age_cache.invalidate()

    def advance_pe(self, delta: float) -> None:
        """Advance the drive's wear by ``delta`` P/E cycles.

        Recomputes the read-disturb coefficient and drops the per-page
        base cache (its keys carry retention but not wear).
        """
        if delta < 0:
            raise ConfigError(f"P/E advance must be >= 0, got {delta!r}")
        if delta == 0:
            return
        self.pe_cycles += delta
        self._disturb_per_read = self.model.read_disturb_rber(self.pe_cycles, 1)
        self._page_base_cache.invalidate()

    # --- RBER -----------------------------------------------------------------------

    def rber(
        self,
        block_key: Tuple[int, ...],
        page: int,
        retention_days: float,
        read_count: int = 0,
    ) -> float:
        """RBER of one sense of a physical page right now.

        Decomposed as ``min(base + disturb, 0.5)`` with the read-count-free
        ``base`` memoized per (page, age): the disturb term is non-negative,
        so folding the model's 0.5 ceiling into the cached base and applying
        it again here is exact (both clamps saturate together), and the
        fast path is bit-identical to :meth:`RberModel.page_rber`.
        """
        if read_count < 0:
            raise ConfigError("read_count must be non-negative")
        base = self._page_base(block_key, page, retention_days)
        return min(base + self._disturb_per_read * read_count, 0.5)

    def _page_base(self, block_key: Tuple[int, ...], page: int,
                   retention_days: float) -> float:
        """The memoized read-count-free base of :meth:`rber`.

        Miss path hand-inlined with :meth:`MemoCache.get_or_compute`'s
        exact counter discipline — page ages advance with simulated time,
        so warm re-reads miss often enough that the lambda + double lookup
        of the generic path showed up in profiles."""
        key = (block_key, page, retention_days)
        cache = self._page_base_cache
        if _perf_cache._ENABLED:
            table = self._page_base_table
            base = table.get(key)
            if base is not None:
                cache.hits += 1
                return base
            cache.misses += 1
            # Flattened miss path (perf layer only; the caches-disabled
            # reference keeps the full object chain below).  Equivalent to
            # ``model.page_rber(PageState(pe, ret, 0), bk, pg)`` step for
            # step: same variation factor, same retention base, and the
            # read-disturb term is exactly ``per_read*0``, so ``base +
            # 0.0`` and the 0.5 ceiling reduce to ``min(base, 0.5)`` bit
            # for bit (the base is strictly positive).
            model = self.model
            factor = model._page_variation(block_key, page)
            base = min(model._retention_base(
                self.pe_cycles, retention_days * self.thermal_acceleration,
                factor), 0.5)
            if len(table) >= cache.max_entries:
                table.clear()
                cache.evictions += 1
            table[key] = base
            return base
        cache.misses += 1
        return self.model.page_rber(
            PageState(
                pe_cycles=self.pe_cycles,
                retention_days=retention_days * self.thermal_acceleration,
                read_count=0,
            ),
            block_key,
            page,
        )

    def exceeds_capability(self, rber: float) -> bool:
        """Whether a conventional read at this RBER enters read-retry."""
        return rber > self.ecc.correction_capability

    # --- perf plumbing ----------------------------------------------------------------

    def invalidate_caches(self) -> None:
        """Drop the sampler's and the underlying RBER model's memoized
        values."""
        self._cold_age_cache.invalidate()
        self._page_base_cache.invalidate()
        self.model.invalidate_caches()

    def cache_stats(self) -> List[dict]:
        """JSON-ready hit/miss counters of this sampler and the underlying
        RBER model."""
        return [self._cold_age_cache.stats().to_dict(),
                self._page_base_cache.stats().to_dict()] + self.model.cache_stats()
