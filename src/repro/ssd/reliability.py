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

A cold age is pure in (seed, lpn), and a cold read lands on its lpn's
identity page, so the simulator's read pipeline keeps it in that page's
dispatch route (:mod:`repro.ssd.read_pipeline`), computed once when the
route is built; :meth:`PageReliabilitySampler.cold_age_days` memoizes it
for direct callers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..config import EccConfig, ReliabilityConfig
from ..errors import ConfigError
from ..nand.rber import RberModel, check_finite_non_negative
from ..nand.thermal import ThermalModel
from ..nand.variation import _fold, _fold_array, _hash_state, _unit
from ..perf.cache import MemoCache
from ..units import US_PER_DAY


class PageReliabilitySampler:
    """A drive's reliability state: retention ages, the RBER model's terms
    at the drive's wear and the thermal acceleration (which the read
    pipeline evaluates per page), and a per-page RBER oracle.

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
        check_finite_non_negative("pe_cycles", pe_cycles)
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
        # cold ages for direct callers; the read pipeline's routes carry
        # their own (repro.perf)
        self._cold_age_cache = MemoCache("reliability.cold_age")
        #: the model's constants at this drive's wear, fixed for the run,
        #: so a read evaluates only the curve
        self.wear = self.model.wear_terms(pe_cycles)

    # --- retention ages ------------------------------------------------------------

    def cold_age_days(self, lpn: int) -> float:
        """Initial retention age of a pre-existing logical page: uniform in
        [0, refresh_days), deterministic in (seed, lpn), memoized.  The
        simulator's read path takes the same value from the route of the
        lpn's identity page instead."""
        return self._cold_age_cache.get_or_compute(
            lpn, lambda: self._cold_age_days_uncached(lpn))

    def _cold_age_days_uncached(self, lpn: int) -> float:
        u = _unit(_fold(self._cold_state, int(lpn)))
        return u * self.reliability.refresh_days

    def _cold_age_days_array(self, lpns: np.ndarray) -> List[float]:
        """:meth:`_cold_age_days_uncached` of many lpns: the hash folds run
        in one numpy pass and each float step per element, so the ages
        are its values bit for bit."""
        days = self.reliability.refresh_days
        return [_unit(h) * days
                for h in _fold_array(self._cold_state, lpns).tolist()]

    def warm_age_days(self, written_at_us: float, now_us: float) -> float:
        """Retention age of a page written during the simulation."""
        if now_us < written_at_us:
            raise ConfigError("read before write")
        return (now_us - written_at_us) / US_PER_DAY

    # --- RBER -----------------------------------------------------------------------

    def rber(
        self,
        block_key: Tuple[int, ...],
        page: int,
        retention_days: float,
        read_count: int = 0,
    ) -> float:
        """RBER of one sense of a physical page right now: the model's
        :meth:`~repro.nand.rber.RberModel.page_rber` at this drive's wear,
        with the retention age scaled by the thermal acceleration, from the
        precomputed wear terms and the page's memoized strength factor.
        The simulator's read pipeline evaluates the same terms with the
        factor its route keeps, without this call.
        """
        check_finite_non_negative("retention_days", retention_days)
        if read_count < 0:
            raise ConfigError("read_count must be non-negative")
        model = self.model
        return model.rber_at(self.wear,
                             retention_days * self.thermal_acceleration,
                             model._page_variation(block_key, page),
                             read_count)

    # --- perf plumbing ----------------------------------------------------------------

    def cache_stats(self) -> List[dict]:
        """JSON-ready hit/miss counters of this sampler and the underlying
        RBER model."""
        return [self._cold_age_cache.stats().to_dict()] + self.model.cache_stats()
