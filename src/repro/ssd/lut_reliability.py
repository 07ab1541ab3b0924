"""Lookup-table reliability sampler — the paper's exact feeding methodology.

SecVI-A: "each block in MQSim-E is modeled with a lookup table that
contains RBER values at different P/E-cycle counts, retention ages, and
block read counts from the device characterization results of a randomly
chosen test block".  :class:`LutReliabilitySampler` implements that path
verbatim: it consumes the per-block LUTs produced by
:meth:`repro.nand.characterization.CharacterizationCampaign.build_block_luts`
and answers per-read RBER queries by bilinear interpolation over the
(P/E, retention) grid, plus the read-disturb term.

It is API-compatible with :class:`~repro.ssd.reliability.PageReliabilitySampler`
so the simulator can swap between the parametric model and the LUT path —
the two are validated against each other in the test suite (they are built
from the same physics, so they must agree within interpolation error).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import EccConfig, ReliabilityConfig
from ..errors import ConfigError
from ..nand.characterization import CharacterizationCampaign
from ..nand.variation import _hash_to_unit
from ..perf import cache as _perf_cache
from ..perf.cache import MemoCache
from ..units import US_PER_DAY
from .reliability import check_finite_non_negative


def _interp_axis(grid: Sequence[float], value: float) -> Tuple[int, int, float]:
    """Clamped linear-interpolation helper: returns (lo, hi, fraction)."""
    if value <= grid[0]:
        return 0, 0, 0.0
    if value >= grid[-1]:
        last = len(grid) - 1
        return last, last, 0.0
    hi = bisect.bisect_right(grid, value)
    lo = hi - 1
    frac = (value - grid[lo]) / (grid[hi] - grid[lo])
    return lo, hi, frac


class LutReliabilitySampler:
    """Per-read RBER oracle backed by per-block characterization LUTs."""

    def __init__(
        self,
        pe_cycles: float,
        n_lut_blocks: int = 64,
        reliability: Optional[ReliabilityConfig] = None,
        ecc: Optional[EccConfig] = None,
        seed: int = 0,
        pe_grid: Sequence[float] = (0, 200, 500, 1000, 2000, 3000),
        retention_grid_days: Sequence[float] = (0, 1, 3, 7, 14, 21, 28, 30),
    ):
        check_finite_non_negative("pe_cycles", pe_cycles)
        if n_lut_blocks < 1:
            raise ConfigError("need at least one characterized block")
        self.pe_cycles = pe_cycles
        self.reliability = reliability or ReliabilityConfig()
        self.ecc = ecc or EccConfig()
        self.seed = seed
        self.pe_grid = list(pe_grid)
        self.retention_grid = list(retention_grid_days)
        campaign = CharacterizationCampaign(
            self.reliability, self.ecc, seed=seed
        )
        #: (n_lut_blocks, pe, retention) RBER tables of synthetic test blocks
        self.luts = campaign.build_block_luts(
            n_lut_blocks, pe_grid=pe_grid, retention_grid_days=retention_grid_days
        )
        self._assigned: Dict[Tuple[int, ...], int] = {}
        # --- hot-path precomputation + memo caches (repro.perf) ----------------
        # The operating P/E point is fixed at construction, so the P/E-axis
        # interpolation indices and the per-read disturb coefficient never
        # change; the bilinear base only varies with (lut table, age).
        self._pe_lo, self._pe_hi, self._pe_frac = _interp_axis(
            self.pe_grid, self.pe_cycles
        )
        self._disturb_per_read = campaign.model.wear_terms(pe_cycles).per_read
        self._base_cache = MemoCache("lut.base_rber")
        self._cold_age_cache = MemoCache("lut.cold_age")
        # bound tables for the inline probes below; the caches never store
        # None and only ever clear() their tables in place
        self._base_table = self._base_cache._table
        self._cold_age_table = self._cold_age_cache._table

    def cache_stats(self) -> List[dict]:
        """JSON-ready hit/miss counters of this sampler's memo caches."""
        return [self._base_cache.stats().to_dict(),
                self._cold_age_cache.stats().to_dict()]

    # --- block -> test-block assignment -----------------------------------------

    def lut_index_for_block(self, block_key: Tuple[int, ...]) -> int:
        """Deterministic 'randomly chosen test block' per simulated block."""
        cached = self._assigned.get(block_key)
        if cached is None:
            u = _hash_to_unit(self.seed, 0x1A7B, *[int(k) for k in block_key])
            # clamp BEFORE caching so u == 1.0 can never store an
            # out-of-range index
            cached = min(int(u * len(self.luts)), len(self.luts) - 1)
            self._assigned[block_key] = cached
        return cached

    # --- sampler API (mirrors PageReliabilitySampler) ------------------------------

    def cold_age_days(self, lpn: int) -> float:
        age = self._cold_age_table.get(lpn) if _perf_cache._ENABLED else None
        if age is None:
            return self._cold_age_cache.get_or_compute(
                lpn, lambda: self._cold_age_days_uncached(lpn)
            )
        self._cold_age_cache.hits += 1
        return age

    def _cold_age_days_uncached(self, lpn: int) -> float:
        u = _hash_to_unit(self.seed, 0xC01D, int(lpn))
        return u * self.reliability.refresh_days

    def warm_age_days(self, written_at_us: float, now_us: float) -> float:
        if now_us < written_at_us:
            raise ConfigError("read before write")
        return (now_us - written_at_us) / US_PER_DAY

    def rber(
        self,
        block_key: Tuple[int, ...],
        page: int,
        retention_days: float,
        read_count: int = 0,
    ) -> float:
        """Bilinear LUT lookup + read-disturb term.

        The bilinear base (including any beyond-grid extrapolation) is
        memoized per ``(test block, retention age)`` — read count is the
        only per-read variable, and it enters as a separate additive term
        whose evaluation order matches the unmemoized expression exactly.
        """
        lut_index = self.lut_index_for_block(block_key)
        key = (lut_index, retention_days)
        base = self._base_table.get(key) if _perf_cache._ENABLED else None
        if base is None:
            base = self._base_cache.get_or_compute(
                key, lambda: self._base_rber(lut_index, retention_days)
            )
        else:
            self._base_cache.hits += 1
        disturb = self._disturb_per_read * read_count
        return float(min(base + disturb, 0.5))

    def _base_rber(self, lut_index: int, retention_days: float) -> float:
        """Read-count-independent RBER of a test block at a retention age."""
        table = self.luts[lut_index]
        pi0, pi1, pf = self._pe_lo, self._pe_hi, self._pe_frac
        ri0, ri1, rf = _interp_axis(self.retention_grid, retention_days)
        v00, v01 = table[pi0, ri0], table[pi0, ri1]
        v10, v11 = table[pi1, ri0], table[pi1, ri1]
        low = v00 + rf * (v01 - v00)
        high = v10 + rf * (v11 - v10)
        base = low + pf * (high - low)
        # beyond the grid's retention ceiling, extrapolate along the last
        # segment so very old pages keep degrading
        if retention_days > self.retention_grid[-1] and len(self.retention_grid) > 1:
            r_lo, r_hi = self.retention_grid[-2], self.retention_grid[-1]
            slope = (table[pi1, -1] - table[pi1, -2]) / (r_hi - r_lo)
            base += max(slope, 0.0) * (retention_days - r_hi)
        return base

    def exceeds_capability(self, rber: float) -> bool:
        return rber > self.ecc.correction_capability
