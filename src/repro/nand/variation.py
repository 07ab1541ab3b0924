"""Process-variation model for flash blocks and pages.

Real 3D NAND exhibits strong block-to-block and milder page-to-page
reliability variation ([19], [23], [54], [57] in the paper).  The paper's
simulator assigns each simulated block the characterization lookup table of a
randomly chosen real test block; we reproduce that by giving every block a
deterministic lognormal *strength* factor that scales its capability-crossing
retention time, and every page a smaller secondary factor.

Determinism matters: the factor of a block must not depend on visit order, so
it is derived by hashing the block key with a seeded mix rather than drawn
from a shared stream.
"""

from __future__ import annotations

import math

from ..config import ReliabilityConfig


def _mix64(x: int) -> int:
    """SplitMix64 finaliser — a cheap, high-quality 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _fold(h: int, *keys: int) -> int:
    """Fold ``keys`` into the hash state ``h``: ``h = mix(h ^ mix(k))``
    per key, left to right.

    A left fold, so ``_fold(_fold(h, *a), *b) == _fold(h, *a, *b)``: a
    caller that hashes many key tuples sharing a prefix stores the folded
    prefix once and resumes from it.  The SplitMix64 rounds are inlined
    (exact integer arithmetic, same values as :func:`_mix64`): the call
    frames would otherwise dominate the hashing.
    """
    for k in keys:
        x = ((k & 0xFFFFFFFFFFFFFFFF) + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        x = h ^ x ^ (x >> 31)
        x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        h = x ^ (x >> 31)
    return h


def _hash_state(seed: int, *keys: int) -> int:
    """The folded hash state of ``(seed, *keys)`` — a prefix to resume
    with :func:`_fold`."""
    return _fold(_mix64(seed & 0xFFFFFFFFFFFFFFFF), *keys)


def _unit(h: int) -> float:
    """Map a 64-bit hash state to a float strictly inside (0, 1), so the
    normal quantile below is finite."""
    return (h + 0.5) / 2.0**64


def _unit_to_standard_normal(u: float) -> float:
    """Inverse-CDF of the standard normal (Acklam's rational approximation,
    |error| < 1.15e-9 — ample for reliability factors)."""
    # coefficients
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if u < p_low:
        q = math.sqrt(-2 * math.log(u))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if u > p_high:
        q = math.sqrt(-2 * math.log(1 - u))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = u - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


class VariationModel:
    """Deterministic per-block / per-page reliability strength factors.

    A factor of 1.0 is the median block; factors multiply the block's
    capability-crossing retention time ``T_cross`` (larger factor = stronger
    block = later crossing).
    """

    def __init__(self, config: ReliabilityConfig, seed: int = 0):
        self.config = config
        self.seed = int(seed)
        # folded (seed, stream) prefixes of the block and page hashes
        self._block_state = _hash_state(self.seed, 0xB10C)
        self._page_state = _hash_state(self.seed, 0x9A6E)

    def block_factor(self, block_key: tuple) -> float:
        """Lognormal strength factor of a block, median 1."""
        u = _unit(_fold(self._block_state, *[int(k) for k in block_key]))
        z = _unit_to_standard_normal(u)
        return math.exp(self.config.block_variation_sigma * z)

    def page_prefix(self, block_key: tuple) -> int:
        """The folded hash state of ``(seed, 0x9A6E, *block_key)``: what
        :meth:`page_factor_at` resumes for every page of the block."""
        return _fold(self._page_state, *[int(k) for k in block_key])

    def page_factor(self, block_key: tuple, page: int) -> float:
        """Secondary per-page factor (smaller sigma), median 1."""
        return self.page_factor_at(self.page_prefix(block_key), page)

    def page_factor_at(self, prefix: int, page: int) -> float:
        """:meth:`page_factor` of ``page`` in the block whose
        :meth:`page_prefix` is ``prefix`` — one key folded, not six."""
        z = _unit_to_standard_normal(_unit(_fold(prefix, int(page))))
        return math.exp(self.config.page_variation_sigma * z)
