"""Closed-form syndrome-weight statistics.

For a regular code with row weight ``w``, a single parity check over i.i.d.
bit errors of rate ``p`` is unsatisfied with probability

    q(p) = (1 - (1 - 2p)^w) / 2

(the classic Gallager lemma).  Checks within one block row of a QC code
share no variables in a 4-cycle-free construction, so the pruned syndrome
weight is well approximated by Binomial(t, q(p)); its mean is the Fig.-10
correlation curve, and Gaussian tail evaluation gives the probability that
the RP comparator fires — the backbone of the analytic RP-accuracy model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError
from .qc_matrix import QcLdpcCode


_SQRT2 = math.sqrt(2.0)


def _phi(x: float) -> float:
    """Standard normal CDF (same constant, same division as the textbook
    ``x / sqrt(2)`` form — hoisting the square root changes no bits)."""
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


@dataclass(frozen=True)
class SyndromeStatistics:
    """Analytic model of the (pruned or full) syndrome weight.

    Parameters
    ----------
    n_checks:
        Number of syndromes considered (``t`` when pruning, ``m`` for the
        full syndrome).
    row_weight:
        Number of codeword bits per check (``c`` for our codes).
    """

    n_checks: int
    row_weight: int

    def __post_init__(self) -> None:
        if self.n_checks < 1 or self.row_weight < 1:
            raise ConfigError("n_checks and row_weight must be positive")

    @classmethod
    def pruned_for(cls, code: QcLdpcCode) -> "SyndromeStatistics":
        """Statistics of the pruned (first block row) syndrome of ``code``."""
        return cls(n_checks=code.t, row_weight=code.c)

    @classmethod
    def full_for(cls, code: QcLdpcCode) -> "SyndromeStatistics":
        """Statistics of the full syndrome of ``code``."""
        return cls(n_checks=code.m, row_weight=code.c)

    # --- moments -----------------------------------------------------------------

    def check_unsatisfied_probability(self, rber: float) -> float:
        """q(p): probability one parity check fails at error rate ``rber``."""
        if not 0 <= rber <= 0.5:
            raise ConfigError("rber must be in [0, 0.5]")
        return 0.5 * (1.0 - (1.0 - 2.0 * rber) ** self.row_weight)

    def expected_weight(self, rber: float) -> float:
        """Mean syndrome weight at ``rber`` (the Fig.-10 y-axis)."""
        return self.n_checks * self.check_unsatisfied_probability(rber)

    # --- threshold / comparator --------------------------------------------------

    def threshold_for_rber(self, rber: float) -> int:
        """The RP correctability threshold rho_s for a capability ``rber``:
        the expected syndrome weight at that error rate, as the paper sets
        rho_s from the Fig.-10 correlation (RBER 0.0085 -> 3830)."""
        return int(round(self.expected_weight(rber)))

    def prob_weight_exceeds(self, threshold: float, rber: float) -> float:
        """P[syndrome weight > threshold] at error rate ``rber`` — the
        probability the RP comparator predicts "needs retry"  (normal
        approximation with continuity correction).

        ``q`` is evaluated once and shared between the mean (exactly
        :meth:`expected_weight`) and the binomial standard deviation; this
        runs once per simulated page read."""
        q = self.check_unsatisfied_probability(rber)
        mu = self.n_checks * q
        sigma = math.sqrt(self.n_checks * q * (1.0 - q))
        if sigma == 0.0:
            return 1.0 if mu > threshold else 0.0
        return 1.0 - _phi((threshold + 0.5 - mu) / sigma)

    def invert_weight(self, weight: float) -> float:
        """Estimate the RBER whose expected syndrome weight is ``weight`` —
        the 1:1 RBER<->weight relationship RP exploits (SecIV-B).

        Inverts q = weight / n_checks through the Gallager lemma; saturates
        at 0.5 when the weight implies q >= 1/2."""
        if not 0 <= weight <= self.n_checks:
            raise ConfigError("weight outside [0, n_checks]")
        q = weight / self.n_checks
        if q >= 0.5:
            return 0.5
        return 0.5 * (1.0 - (1.0 - 2.0 * q) ** (1.0 / self.row_weight))
