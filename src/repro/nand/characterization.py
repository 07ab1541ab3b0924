"""Synthetic real-device characterization campaign.

The paper grounds its simulator in a study of 160 real 3D TLC chips
(SecIII-A, Fig. 4; SecV-A1, Fig. 12).  We cannot source those chips, so this
module runs the same *campaign* against the calibrated models of
:mod:`repro.nand.rber` and :mod:`repro.nand.variation`:

* :meth:`CharacterizationCampaign.retention_crossing_distribution` — for a
  wear level, the distribution over pages of the retention time at which
  RBER exceeds the ECC correction capability (one row of Fig. 4).
* :meth:`CharacterizationCampaign.chunk_similarity` — the intra-page RBER
  similarity of fixed-size chunks (one bar of Fig. 12).  Each chunk's RBER
  is measured as real campaigns do: by accumulating errors over repeated
  reads, which sets the binomial measurement noise floor.

The paper feeds its simulator per-block RBER lookup tables measured on
those chips.  Here the tables would only be samples of the same model, so
the SSD evaluates the model itself
(:class:`~repro.ssd.reliability.PageReliabilitySampler`) and the campaign
builds no tables.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..config import EccConfig, ReliabilityConfig
from ..errors import ConfigError
from ..rng import SeedLike, make_rng
from ..units import KIB
from .rber import PageState, RberModel


class CharacterizationCampaign:
    """Campaign harness over ``n_chips`` synthetic chips.

    The chip/block dimension only matters through process variation, so the
    campaign draws per-page crossing-time factors from the configured
    lognormal laws (the same laws :class:`~repro.nand.variation.VariationModel`
    applies deterministically inside the SSD simulator).
    """

    def __init__(
        self,
        reliability: Optional[ReliabilityConfig] = None,
        ecc: Optional[EccConfig] = None,
        n_chips: int = 160,
        page_bytes: int = 16 * KIB,
        seed: SeedLike = 7,
    ):
        if n_chips < 1:
            raise ConfigError("n_chips must be >= 1")
        self.reliability = reliability or ReliabilityConfig()
        self.ecc = ecc or EccConfig()
        self.n_chips = n_chips
        self.page_bytes = page_bytes
        self.rng = make_rng(seed)
        self.model = RberModel(self.reliability, self.ecc)

    # --- variation sampling -------------------------------------------------------

    def _page_strength_factors(self, n_pages: int) -> np.ndarray:
        """Combined block*page lognormal strength factors for sampled pages."""
        r = self.reliability
        block = self.rng.lognormal(0.0, r.block_variation_sigma, size=n_pages)
        page = self.rng.lognormal(0.0, r.page_variation_sigma, size=n_pages)
        return block * page

    # --- Fig. 4 --------------------------------------------------------------------

    def crossing_days_samples(self, pe_cycles: float, n_pages: int = 20000) -> np.ndarray:
        """Sampled per-page retention times (days) at which RBER crosses the
        ECC correction capability, at the given wear level."""
        factors = self._page_strength_factors(n_pages)
        return self.model.t_cross_days(pe_cycles) * factors

    def retention_crossing_distribution(
        self,
        pe_cycles: float,
        day_bins: Sequence[float] = tuple(range(7, 31)),
        n_pages: int = 20000,
    ) -> Dict[float, float]:
        """One Fig.-4 row: proportion of pages whose RBER first exceeds the
        capability on each retention day in ``day_bins``."""
        crossings = self.crossing_days_samples(pe_cycles, n_pages)
        out: Dict[float, float] = {}
        bins = sorted(day_bins)
        for i, day in enumerate(bins):
            lo = bins[i - 1] if i > 0 else -np.inf
            out[day] = float(np.mean((crossings > lo) & (crossings <= day)))
        return out

    def earliest_crossing_day(
        self, pe_cycles: float, quantile: float = 0.01, n_pages: int = 20000
    ) -> float:
        """Retention day by which the weakest ``quantile`` of pages need a
        read-retry — the left edge of a Fig.-4 row."""
        return float(np.quantile(self.crossing_days_samples(pe_cycles, n_pages), quantile))

    # --- Fig. 12 --------------------------------------------------------------------

    def chunk_similarity(
        self,
        pe_cycles: float,
        retention_days: float,
        chunk_bytes: int,
        n_pages: int = 2000,
        reads_per_measurement: int = 100,
    ) -> float:
        """Maximum over pages of (RBERmax - RBERmin) / RBERmax among the
        fixed-size chunks of a page (one bar of Fig. 12).

        Data randomization makes raw bit errors i.i.d. within a page, so a
        chunk's *measured* RBER is a binomial estimate whose dispersion falls
        with chunk size and with the number of accumulated reads — exactly
        the trend the paper reports (<=4.5% for 4-KiB chunks, up to 13.5%
        for 1-KiB chunks).  Real campaigns accumulate many reads per
        measurement; ``reads_per_measurement`` sets that averaging depth.
        """
        if self.page_bytes % chunk_bytes:
            raise ConfigError("chunk_bytes must divide the page size")
        n_chunks = self.page_bytes // chunk_bytes
        chunk_bits = chunk_bytes * 8
        trials = chunk_bits * reads_per_measurement

        factors = self._page_strength_factors(n_pages)
        state = PageState(pe_cycles=pe_cycles, retention_days=retention_days)
        # one wear level for every page: compute the model's terms once
        wear = self.model.wear_terms(state.pe_cycles)
        rbers = np.clip(
            [self.model.rber_at(wear, state.retention_days, float(f))
             for f in factors],
            1e-6,
            0.5,
        )

        errors = self.rng.binomial(trials, rbers[:, None], size=(n_pages, n_chunks))
        measured = errors / trials
        rmax = measured.max(axis=1)
        rmin = measured.min(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(rmax > 0, (rmax - rmin) / rmax, 0.0)
        return float(ratio.max())
