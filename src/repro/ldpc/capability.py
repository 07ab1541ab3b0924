"""Monte-Carlo measurement of the code's error-correction capability.

Reproduces Fig. 3 of the paper: decoding-failure probability and average
iteration count as a function of RBER, and extracts the *correction
capability* — the RBER at which the failure probability crosses a target
(the paper calls 0.0085 the capability of its 4-KiB code, where failure
probability exceeds 1e-1 and iterations hit the cap).

The channel is a BSC and the code linear, so Monte Carlo transmits the
all-zero codeword without loss of generality; a round-trip test with the
real encoder validates the equivalence.

A logistic fit of the failure curve (in log-RBER) is exposed as
:class:`CapabilityCurve`; the SSD simulator consumes this fit instead of
running a decoder per simulated page — mirroring the paper's own
methodology of driving MQSim-E with calibrated curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import ConfigError
from ..rng import SeedLike, make_rng
from .decoder import MinSumDecoder
from .qc_matrix import QcLdpcCode


@dataclass(frozen=True)
class CapabilityPoint:
    """One Monte-Carlo grid point of the Fig.-3 curves."""

    rber: float
    failure_probability: float
    avg_iterations: float
    trials: int


@dataclass(frozen=True)
class CapabilityCurve:
    """Logistic model of the decode-failure probability vs RBER.

        P_fail(p) = 1 / (1 + exp(-slope * (ln p - ln midpoint)))

    ``midpoint`` is the RBER of 50% failure; ``capability(target)`` returns
    the RBER where the failure probability reaches ``target``.
    """

    midpoint: float
    slope: float

    def __post_init__(self) -> None:
        # log(midpoint) is a constant of the curve; precomputing it saves
        # one transcendental per failure_probability call (same float, so
        # results are bit-identical)
        object.__setattr__(self, "_log_midpoint", math.log(self.midpoint))

    def failure_probability(self, rber: float) -> float:
        if rber <= 0:
            return 0.0
        x = self.slope * (math.log(rber) - self._log_midpoint)
        # clamp to avoid overflow for extreme arguments
        if x > 60:
            return 1.0
        if x < -60:
            return 0.0
        return 1.0 / (1.0 + math.exp(-x))

    def capability(self, target_failure: float = 0.1) -> float:
        """RBER at which P_fail == target_failure."""
        if not 0 < target_failure < 1:
            raise ConfigError("target_failure must be in (0, 1)")
        logit = math.log(target_failure / (1.0 - target_failure))
        return self.midpoint * math.exp(logit / self.slope)

    @classmethod
    def paper_nominal(cls) -> "CapabilityCurve":
        """The curve implied by the paper's engine: capability 0.0085 at
        10% failure with a sharp (slope ~ 40 in ln-RBER) waterfall, matching
        the cliff of Fig. 3(a)."""
        slope = 40.0
        midpoint = 0.0085 * math.exp(-math.log(0.1 / 0.9) / slope)
        return cls(midpoint=midpoint, slope=slope)


def measure_capability(
    code: QcLdpcCode,
    rber_grid: Sequence[float],
    trials: int = 200,
    max_iterations: int = 20,
    seed: SeedLike = 1234,
) -> List[CapabilityPoint]:
    """Monte-Carlo sweep of the min-sum decoder's failure probability and
    iterations over RBER."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    rng = make_rng(seed)
    dec = MinSumDecoder(code, max_iterations=max_iterations)

    points = []
    for rber in rber_grid:
        if not 0 <= rber < 0.5:
            raise ConfigError("rber grid values must be in [0, 0.5)")
        failures = 0
        iters = 0
        for _ in range(trials):
            # all-zero codeword WLOG: received word = error pattern
            received = (rng.random(code.n) < rber).astype(np.uint8)
            result = dec.decode(received)
            failures += int(result.failed)
            iters += result.iterations
        points.append(
            CapabilityPoint(
                rber=float(rber),
                failure_probability=failures / trials,
                avg_iterations=iters / trials,
                trials=trials,
            )
        )
    return points


def fit_capability_curve(points: Sequence[CapabilityPoint]) -> CapabilityCurve:
    """Fit the logistic :class:`CapabilityCurve` to Monte-Carlo points by
    weighted least squares on the logit scale (points at 0/1 are clamped to
    the resolution of their trial count)."""
    xs, ys, ws = [], [], []
    for pt in points:
        if pt.rber <= 0:
            continue
        eps = 0.5 / max(pt.trials, 2)
        p = min(max(pt.failure_probability, eps), 1.0 - eps)
        xs.append(math.log(pt.rber))
        ys.append(math.log(p / (1.0 - p)))
        # inner points carry the most information about the waterfall
        ws.append(p * (1.0 - p) * pt.trials)
    if len(xs) < 2:
        raise ConfigError("need at least two usable points to fit")
    x = np.array(xs)
    y = np.array(ys)
    w = np.array(ws)
    wx = (w * x).sum() / w.sum()
    wy = (w * y).sum() / w.sum()
    cov = (w * (x - wx) * (y - wy)).sum()
    var = (w * (x - wx) ** 2).sum()
    if var == 0:
        raise ConfigError("degenerate fit: all points at one RBER")
    slope = cov / var
    if slope <= 0:
        raise ConfigError("fit produced a non-increasing failure curve")
    intercept = wy - slope * wx
    midpoint = math.exp(-intercept / slope)
    return CapabilityCurve(midpoint=midpoint, slope=slope)
