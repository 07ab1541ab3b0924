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

Wear enters only through four terms — the clamped ``r_prog``,
``cap - r_prog``, ``T_cross`` and the disturb coefficient — which
:meth:`RberModel.wear_terms` returns for one P/E level and
:meth:`RberModel.rber_at` turns into an RBER.  The simulator's sampler
computes a drive's terms once, and its read pipeline evaluates them with
the strength factor (:meth:`RberModel.strength_factor`) that each page's
dispatch route carries; every other caller computes them per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from ..config import EccConfig, ReliabilityConfig
from ..errors import ConfigError
from ..perf.cache import MemoCache
from .variation import VariationModel, _unit_to_standard_normal


def check_finite_non_negative(name: str, value: float) -> None:
    """Reject a wear or age input that is negative, infinite or NaN (NaN
    fails every comparison, so ``value < 0`` alone lets it through)."""
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True, slots=True)
class PageState:
    """Operating condition of a page at read time."""

    pe_cycles: float
    retention_days: float
    read_count: int = 0

    def __post_init__(self) -> None:
        check_finite_non_negative("PageState.pe_cycles", self.pe_cycles)
        check_finite_non_negative("PageState.retention_days",
                                  self.retention_days)
        if self.read_count < 0:
            raise ConfigError("PageState.read_count must be non-negative")


class WearTerms(NamedTuple):
    """The wear-dependent constants of the RBER model at one P/E level
    (see :meth:`RberModel.wear_terms`)."""

    #: program-time RBER of the median page, clamped below the capability
    r_prog: float
    #: ``cap - r_prog``: what the retention term adds by ``t_cross``
    span: float
    #: retention days at which the median page crosses the capability
    t_cross: float
    #: additive RBER per read since the last program
    per_read: float


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
        self._alpha = self.reliability.retention_exponent
        # --- memo caches (repro.perf; exact keys, bit-identical) ---
        # per page: the strength factor, for page_rber and the sampler's
        # direct rber callers (the simulator keeps it in its routes)
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

    def cache_stats(self) -> List[dict]:
        """JSON-ready hit/miss counters of this model's memo caches."""
        return [c.stats().to_dict() for c in self._caches()]

    def _caches(self) -> List[MemoCache]:
        return [self._factor_cache, self._block_factor_cache]

    # --- calibration curves ----------------------------------------------------

    def anchor_cross_days(self, pe_cycles: float) -> float:
        """Retention time (days) at which the weakest (``anchor_quantile``)
        pages cross the ECC correction capability — Fig. 4's left edge."""
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
        """Program-time RBER (retention age zero) of the median page."""
        r = self.reliability
        return r.rber_prog_fresh * (1.0 + r.rber_prog_pe_slope * pe_cycles / 1000.0)

    def wear_terms(self, pe_cycles: float) -> WearTerms:
        """The model's constants at one wear level, for :meth:`rber_at`.

        A drive reads at one P/E level for a whole run, so the simulator's
        sampler computes these once instead of interpolating the anchors
        on every read."""
        cap = self.ecc.correction_capability
        r_prog = min(self.rber_prog(pe_cycles), cap * 0.9)
        r = self.reliability
        per_read = r.read_disturb_per_read * (
            1.0 + r.read_disturb_pe_slope * pe_cycles / 1000.0)
        return WearTerms(r_prog, cap - r_prog, self.t_cross_days(pe_cycles),
                         per_read)

    def rber_at(self, wear: WearTerms, retention_days: float,
                strength_factor: float, read_count: int = 0) -> float:
        """RBER of a page with variation factor ``strength_factor`` (which
        scales ``T_cross``) at the wear level ``wear`` was computed for.
        The one evaluation of the module docstring's curve."""
        r_prog, span, t_cross, per_read = wear
        ratio = retention_days / (t_cross * strength_factor)
        rber = r_prog + span * ratio ** self._alpha + per_read * read_count
        # physical ceiling: a completely scrambled page is 50% wrong
        return min(rber, 0.5)

    # --- main model --------------------------------------------------------------

    def median_rber(self, state: PageState) -> float:
        """RBER of the median (factor-1) page under ``state``."""
        return self.rber_with_strength(state, 1.0)

    def page_rber(self, state: PageState, block_key: tuple, page: int = 0) -> float:
        """RBER of a specific physical page, including process variation.

        ``block_key`` is any hashable tuple of ints identifying the block
        (e.g. ``PageAddress.block_key()``); the same key always yields the
        same variation factor.
        """
        return self.rber_with_strength(state, self._page_variation(block_key, page))

    def strength_factor(self, block_key: tuple, page: int) -> float:
        """Combined block*page strength factor of one physical page, pure
        in (seed, key).  The block's factor and folded page-hash prefix
        are memoized per block (``rber.block_factor``), so a page of a
        seen block folds only the page into the hash.  The simulator
        takes this once per page whose dispatch route it builds on
        demand; a route built with its trace's read footprint takes the
        same value from
        :meth:`~repro.nand.variation.VariationModel.strength_factors`."""
        variation = self.variation
        factor, prefix = self._block_factor_cache.get_or_compute(
            block_key, lambda: (variation.block_factor(block_key),
                                variation.page_prefix(block_key)))
        return factor * variation.page_factor_at(prefix, page)

    def _page_variation(self, block_key: tuple, page: int) -> float:
        """:meth:`strength_factor`, memoized per physical page
        (``rber.variation_factor``) for :meth:`page_rber` and the
        sampler's direct ``rber`` callers; the simulator's read path
        keeps the factor in its per-page route instead."""
        return self._factor_cache.get_or_compute(
            (block_key, page), lambda: self.strength_factor(block_key, page))

    def rber_with_strength(self, state: PageState, strength_factor: float) -> float:
        """RBER of a page with an explicit process-variation strength factor
        (1.0 = median page; larger = more reliable)."""
        return self.rber_at(self.wear_terms(state.pe_cycles),
                            state.retention_days, strength_factor,
                            state.read_count)
