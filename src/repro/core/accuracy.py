"""RP prediction-accuracy evaluation and the calibrated accuracy model.

Two complementary tools:

* :func:`evaluate_rp_accuracy` — the paper's validation experiment
  (Figs. 11 and 14): generate pages at a fixed RBER, run RP on the sensed
  data, run the real LDPC decoder, and score the agreement.
* :class:`RpAccuracyModel` — the closed-form / calibrated curve the SSD
  simulator draws RP verdicts from, mirroring the paper's methodology of
  simulating RP "using the RP prediction accuracy function" (SecVI-A).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..ldpc.analytic import SyndromeStatistics
from ..ldpc.capability import CapabilityCurve
from ..ldpc.decoder import MinSumDecoder
from ..ldpc.qc_matrix import QcLdpcCode
from ..rng import SeedLike, make_rng
from .rp import ReadRetryPredictor


@dataclass(frozen=True)
class RpAccuracyPoint:
    """Monte-Carlo accuracy measurement at one RBER."""

    rber: float
    accuracy: float               # fraction of pages where RP == decoder
    predicted_retry_rate: float   # P[RP says "needs retry"]
    actual_failure_rate: float    # P[decoder actually fails]
    false_clean_rate: float       # uncorrectable predicted correctable
    false_retry_rate: float       # correctable predicted uncorrectable
    pages: int


def evaluate_rp_accuracy(
    code: QcLdpcCode,
    rber_grid: Sequence[float],
    n_pages: int = 200,
    use_pruning: bool = True,
    chunks_per_page: int = 1,
    capability_rber: Optional[float] = None,
    threshold: Optional[int] = None,
    seed: SeedLike = 99,
) -> List[RpAccuracyPoint]:
    """Run the Fig.-11/14 validation study.

    ``use_pruning=False, chunks_per_page=1`` reproduces the
    "w/o approximations" configuration of Fig. 11; the defaults with
    ``chunks_per_page=4`` reproduce the approximate hardware RP of Fig. 14
    (prediction from chunk 0 only, pruned syndromes).

    A page "actually fails" when *any* of its chunks fails to decode —
    exactly the event that triggers a conventional read-retry.
    """
    if n_pages < 1 or chunks_per_page < 1:
        raise ConfigError("n_pages and chunks_per_page must be positive")
    rng = make_rng(seed)
    cap = capability_rber if capability_rber is not None else 0.0085
    rp = ReadRetryPredictor(
        code, capability_rber=cap, use_pruning=use_pruning, threshold=threshold
    )
    dec = MinSumDecoder(code)

    points = []
    for rber in rber_grid:
        agree = 0
        pred_retry = 0
        actual_fail = 0
        false_clean = 0
        false_retry = 0
        for _ in range(n_pages):
            # all-zero codewords WLOG (linear code, symmetric channel)
            chunks = (rng.random((chunks_per_page, code.n)) < rber).astype(np.uint8)
            prediction = rp.predict_from_weight(rp.compute_weight(chunks[0]))
            fails = any(dec.decode(chunk).failed for chunk in chunks)
            pred_retry += prediction.needs_retry
            actual_fail += fails
            if prediction.needs_retry == fails:
                agree += 1
            elif fails:
                false_clean += 1
            else:
                false_retry += 1
        points.append(
            RpAccuracyPoint(
                rber=float(rber),
                accuracy=agree / n_pages,
                predicted_retry_rate=pred_retry / n_pages,
                actual_failure_rate=actual_fail / n_pages,
                false_clean_rate=false_clean / n_pages,
                false_retry_rate=false_retry / n_pages,
                pages=n_pages,
            )
        )
    return points


def mean_accuracy_above_capability(
    points: Sequence[RpAccuracyPoint], capability_rber: float
) -> float:
    """The paper's headline metric: average accuracy over the RBER points
    above the correction capability (99.1% exact / 98.7% approximate)."""
    above = [p.accuracy for p in points if p.rber > capability_rber]
    if not above:
        raise ConfigError("no accuracy points above the capability")
    return sum(above) / len(above)


class RpAccuracyModel:
    """Probability model of RP verdicts as a function of RBER.

    ``p_predict_retry(rber)`` is what the SSD simulator samples: the chance
    the on-die comparator fires for a page at that error rate.  Analytic by
    default (binomial syndrome-weight statistics + logistic decode-failure
    curve); :meth:`from_measurements` builds an interpolating model from
    Monte-Carlo points instead.
    """

    def __init__(
        self,
        statistics: SyndromeStatistics,
        threshold: int,
        failure_curve: CapabilityCurve,
        table: Optional[Sequence[tuple]] = None,
    ):
        self.statistics = statistics
        self.threshold = int(threshold)
        self.failure_curve = failure_curve
        self._table = sorted(table) if table else None

    # --- constructors ---------------------------------------------------------------

    @classmethod
    def paper_nominal(cls) -> "RpAccuracyModel":
        """The configuration of the paper's prototype: pruned syndromes of a
        4x36/t=1024 code, rho_s at RBER 0.0085, nominal failure curve."""
        stats = SyndromeStatistics(n_checks=1024, row_weight=36)
        curve = CapabilityCurve.paper_nominal()
        return cls(stats, stats.threshold_for_rber(0.0085), curve)

    @classmethod
    def for_code(cls, code: QcLdpcCode, capability_rber: float,
                 failure_curve: Optional[CapabilityCurve] = None) -> "RpAccuracyModel":
        """Analytic model matching a concrete code's pruned RP."""
        stats = SyndromeStatistics.pruned_for(code)
        curve = failure_curve or CapabilityCurve.paper_nominal()
        return cls(stats, stats.threshold_for_rber(capability_rber), curve)

    @classmethod
    def from_measurements(
        cls, points: Sequence[RpAccuracyPoint],
        statistics: SyndromeStatistics, threshold: int,
        failure_curve: CapabilityCurve,
    ) -> "RpAccuracyModel":
        """Interpolating model from :func:`evaluate_rp_accuracy` output."""
        table = [(p.rber, p.predicted_retry_rate) for p in points]
        return cls(statistics, threshold, failure_curve, table=table)

    # --- queries ----------------------------------------------------------------------

    def p_predict_retry(self, rber: float) -> float:
        """P[RP predicts "needs retry"] for a page at ``rber``."""
        if rber < 0:
            raise ConfigError("rber must be non-negative")
        if self._table is not None:
            return self._interpolate(rber)
        return self.statistics.prob_weight_exceeds(self.threshold, min(rber, 0.5))

    def p_decode_fail(self, rber: float) -> float:
        """P[off-chip decode fails] for a page at ``rber``."""
        return self.failure_curve.failure_probability(rber)

    def accuracy(self, rber: float) -> float:
        """P[RP verdict matches the decoder outcome] at ``rber``, under the
        (per-RBER) independence approximation — the analytic counterpart of
        the Fig.-11/14 curves."""
        qp = self.p_predict_retry(rber)
        qf = self.p_decode_fail(rber)
        return qp * qf + (1.0 - qp) * (1.0 - qf)

    # --- internals --------------------------------------------------------------------

    def _interpolate(self, rber: float) -> float:
        table = self._table
        if rber <= table[0][0]:
            return table[0][1]
        if rber >= table[-1][0]:
            return table[-1][1]
        idx = bisect.bisect_left(table, (rber, -1.0))
        (x0, y0), (x1, y1) = table[idx - 1], table[idx]
        if x1 == x0:
            return y1
        frac = (rber - x0) / (x1 - x0)
        return y0 + frac * (y1 - y0)
