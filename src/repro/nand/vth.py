"""Cell-level threshold-voltage (VTH) model for TLC NAND flash.

Eight Gaussian VTH states (SecII-A / Fig. 1 generalised from MLC to TLC),
a 2-3-2 Gray mapping onto LSB/CSB/MSB pages, retention-induced shift and
widening of the distributions, and the read maths needed by the Swift-Read
voltage selector:

* :meth:`TlcVthModel.page_rber` — analytic RBER of a page type for a given
  set of VREF offsets (Gaussian-overlap integrals, no sampling),
* :meth:`TlcVthModel.ones_fraction` — expected fraction of 1-bits a sense at
  the given VREF offsets returns (the Swift-Read observable),
* :meth:`TlcVthModel.sample_cells` / :meth:`TlcVthModel.sense` — Monte-Carlo
  cell arrays for end-to-end experiments.

Voltages are in volts on an arbitrary but internally consistent scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..perf.cache import MemoCache
from ..rng import SeedLike, make_rng

#: Gray code of TLC states: state index -> (LSB, CSB, MSB) bit values.
#: Adjacent states differ in exactly one bit (verified in tests).
TLC_GRAY_CODE: Tuple[Tuple[int, int, int], ...] = (
    (1, 1, 1),  # P0 (erased)
    (1, 1, 0),  # P1
    (1, 0, 0),  # P2
    (0, 0, 0),  # P3
    (0, 1, 0),  # P4
    (0, 1, 1),  # P5
    (0, 0, 1),  # P6
    (1, 0, 1),  # P7
)


class PageType(Enum):
    """The three page types of a TLC wordline and their read boundaries.

    The value of each member is the tuple of read-reference indices
    (1-based, VR1..VR7) the page type is sensed with — the 2-3-2 split of
    commercial TLC parts.
    """

    LSB = (3, 7)
    CSB = (2, 4, 6)
    MSB = (1, 5)

    @property
    def bit_index(self) -> int:
        return {"LSB": 0, "CSB": 1, "MSB": 2}[self.name]

    @property
    def boundaries(self) -> Tuple[int, ...]:
        """1-based indices of the VREF boundaries this page type uses."""
        return self.value


@dataclass(frozen=True)
class VthStateParams:
    """Mean/sigma of one VTH state's Gaussian."""

    mean: float
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ConfigError("sigma must be positive")


def _phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class TlcVthConfig:
    """Geometry of the ideal (just-programmed, fresh) VTH landscape."""

    erased_mean: float = -3.0
    erased_sigma: float = 0.35
    programmed_means: Tuple[float, ...] = (0.0, 0.7, 1.4, 2.1, 2.8, 3.5, 4.2)
    programmed_sigma: float = 0.095
    #: Retention shift of the highest state after one "unit" month, in volts;
    #: lower states shift proportionally to their elevation (charge leakage
    #: is roughly proportional to stored charge, Sec II-A2).
    retention_shift_per_month: float = 0.22
    #: Distribution widening per month of retention, in volts of extra sigma.
    retention_widen_per_month: float = 0.035
    #: Extra widening per 1K P/E cycles (TOX damage).
    pe_widen_per_k: float = 0.045
    #: Extra retention-shift multiplier per 1K P/E cycles.
    pe_shift_slope_per_k: float = 0.55

    def __post_init__(self) -> None:
        if len(self.programmed_means) != 7:
            raise ConfigError("need 7 programmed states for TLC")
        if list(self.programmed_means) != sorted(self.programmed_means):
            raise ConfigError("programmed means must be increasing")


class TlcVthModel:
    """TLC VTH distributions under wear and retention, with read maths."""

    N_STATES = 8

    def __init__(self, config: Optional[TlcVthConfig] = None):
        self.config = config or TlcVthConfig()
        means = [self.config.erased_mean, *self.config.programmed_means]
        # Default read voltages: midpoints between ideal adjacent states.
        self.default_vrefs: Tuple[float, ...] = tuple(
            0.5 * (means[i] + means[i + 1]) for i in range(self.N_STATES - 1)
        )
        # --- hot-path precomputation (repro.perf) ---
        # Per page type: sorted boundary indices, the default boundary
        # voltages (offset 0.0 applied, matching the generic path exactly),
        # and the bin -> bit LUT.  All three are condition-independent.
        self._boundaries: Dict[PageType, Tuple[int, ...]] = {}
        self._default_boundaries_v: Dict[PageType, np.ndarray] = {}
        self._bit_luts: Dict[PageType, np.ndarray] = {}
        for ptype in PageType:
            boundaries = tuple(sorted(ptype.boundaries))
            self._boundaries[ptype] = boundaries
            self._default_boundaries_v[ptype] = np.array(
                [self.default_vrefs[b - 1] + 0.0 for b in boundaries]
            )
            self._bit_luts[ptype] = np.array(
                [self._bin_bit(boundaries, j, ptype.bit_index)
                 for j in range(len(boundaries) + 1)],
                dtype=np.uint8,
            )
        # Exact-key memo caches.  The model is immutable (frozen config), so
        # entries never go stale.
        self._params_cache = MemoCache("vth.state_params", max_entries=4096)
        self._rber_cache = MemoCache("vth.page_rber")
        self._ones_cache = MemoCache("vth.ones_fraction")
        self._above_cache = MemoCache("vth.fraction_above")
        self._opt_vref_cache = MemoCache("vth.optimal_vref_offset")

    # --- cache plumbing (repro.perf) ----------------------------------------------

    def _caches(self) -> List[MemoCache]:
        return [self._params_cache, self._rber_cache, self._ones_cache,
                self._above_cache, self._opt_vref_cache]

    def cache_stats(self) -> List[dict]:
        """JSON-ready hit/miss counters of this model's memo caches."""
        return [c.stats().to_dict() for c in self._caches()]

    @staticmethod
    def _offsets_key(
        vref_offsets: Optional[Dict[int, float]]
    ) -> Optional[Tuple[Tuple[int, float], ...]]:
        if not vref_offsets:
            return None
        return tuple(sorted(vref_offsets.items()))

    # --- distributions under operating conditions --------------------------------

    def state_params(
        self, pe_cycles: float = 0.0, retention_months: float = 0.0
    ) -> List[VthStateParams]:
        """Gaussian parameters of all 8 states under the given condition.

        Memoized on the exact ``(pe_cycles, retention_months)`` pair — the
        simulator evaluates the same handful of conditions thousands of
        times.  The returned list is shared; treat it as read-only."""
        return self._params_cache.get_or_compute(
            (pe_cycles, retention_months),
            lambda: self._state_params_uncached(pe_cycles, retention_months),
        )

    def _state_params_uncached(
        self, pe_cycles: float, retention_months: float
    ) -> List[VthStateParams]:
        if pe_cycles < 0 or retention_months < 0:
            raise ConfigError("condition values must be non-negative")
        c = self.config
        pe_k = pe_cycles / 1000.0
        widen = retention_months * c.retention_widen_per_month + pe_k * c.pe_widen_per_k
        shift_scale = (
            c.retention_shift_per_month
            * retention_months
            * (1.0 + c.pe_shift_slope_per_k * pe_k)
        )
        top = c.programmed_means[-1]
        params = []
        for i in range(self.N_STATES):
            if i == 0:
                mean, sigma = c.erased_mean, c.erased_sigma
                # erased cells gain charge from disturb; small upward creep
                mean += 0.15 * shift_scale
                sigma += 0.5 * widen
            else:
                mean = c.programmed_means[i - 1]
                # proportional leakage: highest state shifts the most
                elevation = (mean - c.erased_mean) / (top - c.erased_mean)
                mean -= shift_scale * elevation
                sigma = c.programmed_sigma + widen
            params.append(VthStateParams(mean=mean, sigma=sigma))
        return params

    # --- analytic read maths -------------------------------------------------------

    def _resolve_vrefs(
        self, page_type: PageType, vref_offsets: Optional[Dict[int, float]] = None
    ) -> Dict[int, float]:
        """VREF voltage per boundary index used by ``page_type``; offsets are
        added to the chip-default voltages."""
        offsets = vref_offsets or {}
        return {
            b: self.default_vrefs[b - 1] + offsets.get(b, 0.0)
            for b in page_type.boundaries
        }

    def state_read_probabilities(
        self,
        state: int,
        boundaries_v: Sequence[float],
        params: List[VthStateParams],
    ) -> List[float]:
        """Probability that a cell programmed to ``state`` lands in each of
        the ``len(boundaries_v)+1`` sense bins delimited by the boundary
        voltages (ascending)."""
        p = params[state]
        cdfs = [_phi((v - p.mean) / p.sigma) for v in boundaries_v]
        probs = []
        prev = 0.0
        for cdf in cdfs:
            probs.append(max(cdf - prev, 0.0))
            prev = cdf
        probs.append(max(1.0 - prev, 0.0))
        return probs

    def page_rber(
        self,
        page_type: PageType,
        pe_cycles: float = 0.0,
        retention_months: float = 0.0,
        vref_offsets: Optional[Dict[int, float]] = None,
    ) -> float:
        """Analytic RBER of a page of ``page_type`` sensed with the given
        per-boundary VREF offsets, assuming randomized (uniform) state usage.

        Memoized on the exact condition + offsets (the die re-senses the
        same page at the same retry levels over and over)."""
        key = (page_type, pe_cycles, retention_months,
               self._offsets_key(vref_offsets))
        return self._rber_cache.get_or_compute(
            key,
            lambda: self._page_rber_uncached(
                page_type, pe_cycles, retention_months, vref_offsets
            ),
        )

    def _page_rber_uncached(
        self,
        page_type: PageType,
        pe_cycles: float,
        retention_months: float,
        vref_offsets: Optional[Dict[int, float]],
    ) -> float:
        params = self.state_params(pe_cycles, retention_months)
        vrefs = self._resolve_vrefs(page_type, vref_offsets)
        boundaries = sorted(page_type.boundaries)
        boundaries_v = [vrefs[b] for b in boundaries]
        bit_idx = page_type.bit_index
        err = 0.0
        for state in range(self.N_STATES):
            true_bit = TLC_GRAY_CODE[state][bit_idx]
            bin_probs = self.state_read_probabilities(state, boundaries_v, params)
            # A cell sensed in bin j (between boundary j-1 and j) reads as the
            # bit value the Gray code assigns to states in that voltage span.
            for j, pr in enumerate(bin_probs):
                read_bit = self._bin_bit(boundaries, j, bit_idx)
                if read_bit != true_bit:
                    err += pr
        return err / self.N_STATES

    @staticmethod
    def _bin_bit(boundaries: Sequence[int], bin_index: int, bit_idx: int) -> int:
        """Bit value read for a cell falling in sense-bin ``bin_index``.

        Bin ``j`` lies between boundary ``j-1`` and ``j``; the bit value is
        that of any Gray state whose index range falls in the bin — e.g. for
        the LSB (boundaries VR3, VR7): below VR3 → states 0-2 → 1; between →
        states 3-6 → 0; above VR7 → state 7 → 1.
        """
        # representative state for the bin: just below the next boundary, or
        # the top state for the last bin
        if bin_index < len(boundaries):
            rep_state = boundaries[bin_index] - 1
        else:
            rep_state = TlcVthModel.N_STATES - 1
        return TLC_GRAY_CODE[rep_state][bit_idx]

    def ones_fraction(
        self,
        page_type: PageType,
        pe_cycles: float = 0.0,
        retention_months: float = 0.0,
        vref_offsets: Optional[Dict[int, float]] = None,
    ) -> float:
        """Expected fraction of 1-bits in a sensed page — the observable the
        Swift-Read heuristic compares against its randomization-guaranteed
        expectation (SecIII-B).  Memoized like :meth:`page_rber`."""
        key = (page_type, pe_cycles, retention_months,
               self._offsets_key(vref_offsets))
        return self._ones_cache.get_or_compute(
            key,
            lambda: self._ones_fraction_uncached(
                page_type, pe_cycles, retention_months, vref_offsets
            ),
        )

    def _ones_fraction_uncached(
        self,
        page_type: PageType,
        pe_cycles: float,
        retention_months: float,
        vref_offsets: Optional[Dict[int, float]],
    ) -> float:
        params = self.state_params(pe_cycles, retention_months)
        vrefs = self._resolve_vrefs(page_type, vref_offsets)
        boundaries = sorted(page_type.boundaries)
        boundaries_v = [vrefs[b] for b in boundaries]
        bit_idx = page_type.bit_index
        ones = 0.0
        for state in range(self.N_STATES):
            bin_probs = self.state_read_probabilities(state, boundaries_v, params)
            for j, pr in enumerate(bin_probs):
                if self._bin_bit(boundaries, j, bit_idx) == 1:
                    ones += pr
        return ones / self.N_STATES

    def expected_ones_fraction(self, page_type: PageType) -> float:
        """Ones fraction of an error-free randomized page (states uniform)."""
        bit_idx = page_type.bit_index
        return sum(bits[bit_idx] for bits in TLC_GRAY_CODE) / self.N_STATES

    # --- Swift-Read estimation (single representative-VREF sense) ------------------

    def fraction_above(
        self, level_v: float, pe_cycles: float = 0.0,
        retention_months: float = 0.0,
    ) -> float:
        """Fraction of (randomized, uniform-state) cells whose VTH exceeds
        ``level_v`` — what a single sense at that level measures.
        Memoized on the exact (level, condition) triple."""
        return self._above_cache.get_or_compute(
            (level_v, pe_cycles, retention_months),
            lambda: self._fraction_above_uncached(
                level_v, pe_cycles, retention_months
            ),
        )

    def _fraction_above_uncached(
        self, level_v: float, pe_cycles: float, retention_months: float
    ) -> float:
        params = self.state_params(pe_cycles, retention_months)
        return sum(
            1.0 - _phi((level_v - p.mean) / p.sigma) for p in params
        ) / self.N_STATES

    def boundary_elevation(self, boundary: int) -> float:
        """Relative charge elevation of a read boundary: 0 at the erased
        state, 1 at the top programmed state.  Retention shift at a
        boundary is roughly proportional to this (SecII-A2)."""
        if not 1 <= boundary <= self.N_STATES - 1:
            raise ConfigError(f"boundary {boundary} out of range")
        c = self.config
        return (self.default_vrefs[boundary - 1] - c.erased_mean) / (
            c.programmed_means[-1] - c.erased_mean
        )

    def estimate_leakage_scale(
        self, measured_above: float, rep_boundary: int = 5
    ) -> float:
        """Invert a single representative-VREF ones-count into a leakage
        scale (volts of shift at the top state).

        This is the Swift-Read heuristic of [32]: data randomization fixes
        the expected fraction of cells above any boundary, so the measured
        deviation identifies how far the distributions have drifted.  The
        estimator's forward model assumes fresh distribution *shapes* (it
        cannot know the true widening), which is what makes the recovered
        voltages near-optimal rather than exact."""
        level = self.default_vrefs[rep_boundary - 1]
        c = self.config
        fresh = self.state_params(0.0, 0.0)
        top = c.programmed_means[-1]

        def predicted_above(scale: float) -> float:
            total = 0.0
            for i, p in enumerate(fresh):
                if i == 0:
                    mean = p.mean + 0.15 * scale
                else:
                    elevation = (p.mean - c.erased_mean) / (top - c.erased_mean)
                    mean = p.mean - scale * elevation
                total += 1.0 - _phi((level - mean) / p.sigma)
            return total / self.N_STATES

        lo, hi = 0.0, 3.0
        if measured_above >= predicted_above(0.0):
            return 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            # leakage moves mass below the level: predicted_above decreases
            # monotonically with the scale
            if predicted_above(mid) > measured_above:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def swift_offsets(
        self, measured_above: float, page_type: PageType,
        rep_boundary: int = 5,
    ) -> Dict[int, float]:
        """Per-boundary VREF corrections from one representative sense:
        each boundary shifts down by the estimated leakage scale times its
        elevation."""
        scale = self.estimate_leakage_scale(measured_above, rep_boundary)
        return {
            b: -scale * self.boundary_elevation(b) for b in page_type.boundaries
        }

    def optimal_vref_offset(
        self, boundary: int, pe_cycles: float, retention_months: float
    ) -> float:
        """Offset from the default VREF to the minimum-error read voltage for
        ``boundary`` (1-based), found by ternary search on the overlap of the
        two adjacent state distributions.  Memoized — the 80-iteration
        search is the most expensive single call in the model."""
        return self._opt_vref_cache.get_or_compute(
            (boundary, pe_cycles, retention_months),
            lambda: self._optimal_vref_offset_uncached(
                boundary, pe_cycles, retention_months
            ),
        )

    def _optimal_vref_offset_uncached(
        self, boundary: int, pe_cycles: float, retention_months: float
    ) -> float:
        params = self.state_params(pe_cycles, retention_months)
        lo_state, hi_state = boundary - 1, boundary

        def overlap(v: float) -> float:
            lo, hi = params[lo_state], params[hi_state]
            miss_hi = _phi((v - hi.mean) / hi.sigma)        # hi-state read low
            miss_lo = 1.0 - _phi((v - lo.mean) / lo.sigma)  # lo-state read high
            return miss_hi + miss_lo

        default = self.default_vrefs[boundary - 1]
        lo_v, hi_v = default - 2.5, default + 1.0
        for _ in range(80):
            m1 = lo_v + (hi_v - lo_v) / 3
            m2 = hi_v - (hi_v - lo_v) / 3
            if overlap(m1) < overlap(m2):
                hi_v = m2
            else:
                lo_v = m1
        return 0.5 * (lo_v + hi_v) - default

    # --- Monte-Carlo cell arrays -----------------------------------------------------

    def _state_arrays(
        self, pe_cycles: float, retention_months: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(means, sigmas) arrays of all 8 states, memoized per condition
        alongside :meth:`state_params` (read-only)."""
        return self._params_cache.get_or_compute(
            ("arrays", pe_cycles, retention_months),
            lambda: self._state_arrays_uncached(pe_cycles, retention_months),
        )

    def _state_arrays_uncached(
        self, pe_cycles: float, retention_months: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        params = self.state_params(pe_cycles, retention_months)
        means = np.array([p.mean for p in params])
        sigmas = np.array([p.sigma for p in params])
        return means, sigmas

    def sample_cells(
        self,
        n_cells: int,
        pe_cycles: float = 0.0,
        retention_months: float = 0.0,
        seed: SeedLike = None,
        states: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``n_cells`` wordline cells: returns (states, vth) arrays.

        ``states`` may be supplied (e.g. from a randomizer) or is drawn
        uniformly as data randomization guarantees in practice.
        """
        rng = make_rng(seed)
        if states is None:
            states = rng.integers(0, self.N_STATES, size=n_cells)
        states = np.asarray(states)
        if states.shape != (n_cells,):
            raise ConfigError("states must have shape (n_cells,)")
        means, sigmas = self._state_arrays(pe_cycles, retention_months)
        vth = rng.normal(means[states], sigmas[states])
        return states, vth

    def _boundaries_v(
        self, page_type: PageType, vref_offsets: Optional[Dict[int, float]]
    ) -> np.ndarray:
        """Ascending boundary voltages for a sense of ``page_type``; the
        no-offset fast path returns the precomputed array (read-only)."""
        if not vref_offsets:
            return self._default_boundaries_v[page_type]
        return np.array([
            self.default_vrefs[b - 1] + vref_offsets.get(b, 0.0)
            for b in self._boundaries[page_type]
        ])

    def sense(
        self,
        vth: np.ndarray,
        page_type: PageType,
        vref_offsets: Optional[Dict[int, float]] = None,
    ) -> np.ndarray:
        """Sense a cell array as a page of ``page_type``: returns the bit
        array the chip would latch into its page buffer.

        One vectorized pass: a single ``searchsorted`` against the (cached)
        boundary voltages followed by one LUT gather — the per-call
        boundary loops and LUT rebuilds of the seed implementation
        (:func:`repro.perf.kernels.sense_reference`) are precomputed in
        ``__init__``."""
        boundaries_v = self._boundaries_v(page_type, vref_offsets)
        bins = np.searchsorted(boundaries_v, vth)
        return self._bit_luts[page_type][bins]

    def sense_many(
        self,
        vth: np.ndarray,
        page_type: PageType,
        offset_sets: Sequence[Optional[Dict[int, float]]],
    ) -> np.ndarray:
        """Batched sense: one ``(len(offset_sets), n_cells)`` result for a
        chunk read that probes several VREF settings (e.g. a retry ladder)
        over the same cell array, reusing the sorted-cell ordering instead
        of re-sensing from scratch per setting.

        Each row is bit-identical to ``sense(vth, page_type, offsets)``
        for the corresponding offsets: ``searchsorted(bounds, v)`` equals
        the number of boundaries strictly below ``v``, which is what the
        broadcast comparison counts."""
        vth = np.asarray(vth)
        bounds = np.stack([
            self._boundaries_v(page_type, offsets) for offsets in offset_sets
        ])  # (k, n_boundaries)
        bins = (vth[None, None, :] > bounds[:, :, None]).sum(axis=1)
        return self._bit_luts[page_type][bins]

    def true_bits(self, states: np.ndarray, page_type: PageType) -> np.ndarray:
        """Ground-truth page bits for the given cell states."""
        lut = np.array([bits[page_type.bit_index] for bits in TLC_GRAY_CODE],
                       dtype=np.uint8)
        return lut[np.asarray(states)]
