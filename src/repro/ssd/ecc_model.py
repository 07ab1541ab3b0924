"""Probabilistic decode-outcome model for the SSD simulator.

The event simulator draws, per page read, everything the retry policies
need to compile a timed plan:

* whether the off-chip LDPC decode of the first sense succeeds (logistic
  failure curve calibrated from :mod:`repro.ldpc.capability`),
* the decode latency (iterations model of :mod:`repro.ldpc.latency`; a
  failed decode always burns the full 20 us),
* whether the on-die RP comparator fires (accuracy model of
  :mod:`repro.core.accuracy`),
* outcome and latency of a voltage-adjusted re-read (near-optimal VREF
  lowers the effective RBER well below capability, so the paper sets its
  post-retry tECC to 1 us — we sample through the same curves for
  consistency instead of hard-coding success).
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Optional

import numpy as np

from ..config import EccConfig
from ..core.accuracy import RpAccuracyModel
from ..errors import ConfigError
from ..ldpc.capability import CapabilityCurve
from ..ldpc.latency import EccLatencyModel
from ..rng import SeedLike, make_rng


@dataclass(frozen=True, slots=True)
class DecodeDraw:
    """One sampled decode attempt."""

    success: bool
    t_ecc: float


#: Uniform draws prefetched per ``Generator.random(n)`` call.  PCG64's
#: ``random(n)`` returns exactly the next ``n`` doubles of the stream, so
#: serving draws out of a prefetched chunk consumes the *same values in
#: the same order* as one ``random()`` call per draw.  Every decode, RP
#: and policy draw relies on that; ``tests/test_perf_equivalence.py``
#: pins it across chunk boundaries.
_UNIFORM_CHUNK = 512


class EccOutcomeModel:
    """Samples decode outcomes, latencies, and RP verdicts."""

    def __init__(
        self,
        ecc: Optional[EccConfig] = None,
        failure_curve: Optional[CapabilityCurve] = None,
        latency: Optional[EccLatencyModel] = None,
        rp_model: Optional[RpAccuracyModel] = None,
        retry_rber_factor: float = 0.15,
        seed: SeedLike = 42,
    ):
        if not 0 < retry_rber_factor <= 2:
            raise ConfigError("retry_rber_factor must be in (0, 2]")
        self.ecc = ecc or EccConfig()
        self.failure_curve = failure_curve or CapabilityCurve.paper_nominal()
        self.latency = latency or EccLatencyModel(self.ecc)
        self.rp_model = rp_model or RpAccuracyModel.paper_nominal()
        self.retry_rber_factor = retry_rber_factor
        self.rng = make_rng(seed)
        # buffered uniform stream (see _next_uniform / _UNIFORM_CHUNK)
        self._uniform_chunk: Optional[np.ndarray] = None
        self._uniform_pos = 0

    # --- the uniform stream ----------------------------------------------------------

    def _next_uniform(self) -> float:
        """Next double of ``self.rng``'s uniform stream, served from a
        numpy-prefetched chunk (identical values and order to calling
        ``self.rng.random()`` once per draw; see :data:`_UNIFORM_CHUNK`)."""
        pos = self._uniform_pos
        chunk = self._uniform_chunk
        if chunk is None or pos == len(chunk):
            chunk = self._uniform_chunk = self.rng.random(_UNIFORM_CHUNK)
            pos = 0
        self._uniform_pos = pos + 1
        return float(chunk[pos])

    # --- decode attempts -------------------------------------------------------------

    def _decode(self, rber: float):
        """``(success, t_ecc)`` of one decode at ``rber``: one uniform draw
        against the failure curve; a failed decode burns the full
        iteration budget.  Not memoized: per-read rber keys shift with the
        retention age and the disturb term, and a table of them (hitting
        10-52 % on the benchmark workloads) made no workload faster."""
        p_fail = self.failure_curve.failure_probability(rber)
        if self._next_uniform() >= p_fail:
            return True, self.latency.latency_us(rber, failed=False)
        return False, self.latency.latency_us(rber, failed=True)

    def first_decode(self, rber: float) -> DecodeDraw:
        """Outcome of decoding the default-VREF sense."""
        return DecodeDraw(*self._decode(rber))

    def first_decode_outcome(self, rber: float):
        """``(success, t_ecc)`` of :meth:`first_decode` without the
        :class:`DecodeDraw` wrapper — the plan compilers run once per page
        read, so the per-draw allocation is worth skipping.  Same single
        uniform draw, bit-identical outcome."""
        return self._decode(rber)

    def retry_rber(self, rber: float) -> float:
        """Effective RBER after a near-optimal VREF adjustment: the residual
        error floor of the page, well below capability ([46])."""
        return min(rber, self.ecc.correction_capability) * self.retry_rber_factor

    def retried_decode(self, rber: float) -> DecodeDraw:
        """Outcome of decoding a re-read with near-optimal VREF."""
        return DecodeDraw(*self._decode(self.retry_rber(rber)))

    def retried_decode_outcome(self, rber: float):
        """``(success, t_ecc)`` twin of :meth:`retried_decode` (see
        :meth:`first_decode_outcome`)."""
        return self._decode(self.retry_rber(rber))

    def healthy_decode(self, rber: float) -> DecodeDraw:
        """Decode of a page as seen by the hypothetical SSDzero: always
        succeeds; latency follows the below-capability part of the
        iteration curve."""
        capped = min(rber, 0.5 * self.ecc.correction_capability)
        return DecodeDraw(success=True, t_ecc=self.latency.latency_us(capped))

    # --- RP verdicts --------------------------------------------------------------------

    def rp_predicts_retry(self, rber: float) -> bool:
        """Sample the on-die (or controller-side) RP comparator.

        Not memoized: per-read rber keys almost never repeat here."""
        p = self.rp_model.p_predict_retry(rber)
        return bool(self._next_uniform() < p)

    #: P[RP flags a page | that page's decode would fail] — Fig. 11's
    #: measured accuracy on uncorrectable pages (99.1% exact, 98.7% with
    #: the hardware approximations).  Used when a policy evaluates RP on a
    #: page *known* (by the simulation) to be headed for a decode failure,
    #: where the conditional verdict is what matters.
    p_catch_uncorrectable: float = 0.987

    def rp_catches_failed_page(self, rber: float) -> bool:
        """Conditional comparator verdict for a page whose decode would
        fail: fires with the Fig.-11/14 accuracy-on-uncorrectable-pages
        probability (the marginal ``rp_predicts_retry`` underestimates the
        catch rate because failure conditions on a high error count)."""
        del rber  # the conditioning dominates the marginal rate
        return bool(self._next_uniform() < self.p_catch_uncorrectable)

    # --- misc draws -----------------------------------------------------------------------

    def bernoulli(self, p: float) -> bool:
        """Policy-level coin flip (e.g. Sentinel's page-type-dependent extra
        read) from the same stream, for reproducibility."""
        if not 0 <= p <= 1:
            raise ConfigError("probability must be in [0, 1]")
        return bool(self._next_uniform() < p)


class ScriptedEccOutcomeModel(EccOutcomeModel):
    """Deterministic outcome model for micro-experiments and tests.

    ``decode_script`` lists, in *call order*, whether each first decode
    succeeds; ``rp_script`` lists, in call order, whether each RP-checked
    page would succeed (the verdict returned is its negation).  An exhausted
    or absent script means "succeeds".  Voltage-adjusted re-reads always
    decode in ``t_ecc_min``.

    Used by the Fig. 7/8 execution-timeline reproduction, where the paper
    fixes exactly which multi-plane commands fail (A and B) and which do
    not (C and D): reactive policies consume ``decode_script`` once per page
    in issue order, RiF consumes ``rp_script`` once per page in issue order
    (with its first decodes then all succeeding, since predicted pages are
    re-read before transfer).
    """

    def __init__(self, decode_script=None, rp_script=None,
                 ecc: Optional[EccConfig] = None, t_ecc_ok: float = 4.0):
        super().__init__(ecc=ecc, seed=0)
        self._decode_script = list(decode_script or [])
        self._rp_script = list(rp_script or [])
        self._decode_cursor = 0
        self._rp_cursor = 0
        self.t_ecc_ok = t_ecc_ok

    @staticmethod
    def _next(script, cursor) -> bool:
        return script[cursor] if cursor < len(script) else True

    def first_decode(self, rber: float) -> DecodeDraw:
        success = self._next(self._decode_script, self._decode_cursor)
        self._decode_cursor += 1
        t = self.t_ecc_ok if success else self.ecc.t_ecc_max
        return DecodeDraw(success=success, t_ecc=t)

    def first_decode_outcome(self, rber: float):
        # delegate through the virtual draw methods so scripted scenarios
        # (and their test subclasses) keep steering the tuple fast path
        draw = self.first_decode(rber)
        return draw.success, draw.t_ecc

    def retried_decode(self, rber: float) -> DecodeDraw:
        return DecodeDraw(success=True, t_ecc=self.ecc.t_ecc_min)

    def retried_decode_outcome(self, rber: float):
        draw = self.retried_decode(rber)
        return draw.success, draw.t_ecc

    def healthy_decode(self, rber: float) -> DecodeDraw:
        return DecodeDraw(success=True, t_ecc=self.t_ecc_ok)

    def rp_predicts_retry(self, rber: float) -> bool:
        would_succeed = self._next(self._rp_script, self._rp_cursor)
        self._rp_cursor += 1
        return not would_succeed

    def rp_catches_failed_page(self, rber: float) -> bool:
        return True  # deterministic: scripted scenarios have an ideal RP

    def bernoulli(self, p: float) -> bool:
        return p >= 1.0
