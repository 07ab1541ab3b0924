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
from typing import List, Sequence

import numpy as np

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


#: SplitMix64's constants and shifts for :func:`_fold_array`, as
#: ``np.uint64`` so that no casting rule (numpy 1.x value-based casting
#: included) can promote a step to a signed or float type
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _fold_array(h, *keys: np.ndarray) -> np.ndarray:
    """:func:`_fold` of many key tuples at once, as a ``np.uint64`` array:
    element ``i`` is ``_fold(h_i, keys[0][i], keys[1][i], ...)``, where
    ``h`` is one hash state for every element or an array of them.  The
    keys are arrays of non-negative integers.  Unsigned array arithmetic
    wraps modulo 2**64, which is the ``& 0xFFFFFFFFFFFFFFFF`` of the
    scalar fold, so the states are the same integers.
    """
    h = np.asarray(h, dtype=np.uint64)
    for k in keys:
        x = k.astype(np.uint64)
        x += _GOLDEN
        x ^= x >> _S30
        x *= _MIX1
        x ^= x >> _S27
        x *= _MIX2
        x ^= x >> _S31
        x ^= h
        x += _GOLDEN
        x ^= x >> _S30
        x *= _MIX1
        x ^= x >> _S27
        x *= _MIX2
        x ^= x >> _S31
        h = x
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
    |error| < 1.15e-9 — ample for reliability factors).  The coefficients
    are literals: the tails use ``c`` over ``d`` in ``q``, the centre
    ``a`` over ``b`` in ``r``, each a Horner chain from the highest
    coefficient."""
    if u < 0.02425:
        q = math.sqrt(-2 * math.log(u))
        return (((((-7.784894002430293e-03 * q - 3.223964580411365e-01) * q
                   - 2.400758277161838e+00) * q - 2.549732539343734e+00) * q
                 + 4.374664141464968e+00) * q + 2.938163982698783e+00) / \
            ((((7.784695709041462e-03 * q + 3.224671290700398e-01) * q
               + 2.445134137142996e+00) * q + 3.754408661907416e+00) * q + 1)
    if u > 1 - 0.02425:
        q = math.sqrt(-2 * math.log(1 - u))
        return -(((((-7.784894002430293e-03 * q - 3.223964580411365e-01) * q
                    - 2.400758277161838e+00) * q - 2.549732539343734e+00) * q
                  + 4.374664141464968e+00) * q + 2.938163982698783e+00) / \
            ((((7.784695709041462e-03 * q + 3.224671290700398e-01) * q
               + 2.445134137142996e+00) * q + 3.754408661907416e+00) * q + 1)
    q = u - 0.5
    r = q * q
    return (((((-3.969683028665376e+01 * r + 2.209460984245205e+02) * r
               - 2.759285104469687e+02) * r + 1.383577518672690e+02) * r
             - 3.066479806614716e+01) * r + 2.506628277459239e+00) * q / \
        (((((-5.447609879822406e+01 * r + 1.615858368580409e+02) * r
            - 1.556989798598866e+02) * r + 6.680131188771972e+01) * r
          - 1.328068155288572e+01) * r + 1)


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

    def strength_factors(self, blocks: Sequence[np.ndarray],
                         block_of: np.ndarray,
                         pages: np.ndarray) -> List[float]:
        """``block_factor(key) * page_factor(key, page)`` of many pages:
        page ``i`` is ``pages[i]`` of the block whose key is element
        ``block_of[i]`` of the four key columns ``blocks`` (channel, die,
        plane, block).  The folds run once per array in numpy; every
        float step runs per element as in :meth:`block_factor` and
        :meth:`page_factor_at`, so each factor is the per-page one bit
        for bit (``np.exp`` differs from ``math.exp`` on some inputs)."""
        block_hashes = _fold_array(self._block_state, *blocks).tolist()
        prefixes = _fold_array(self._page_state, *blocks)
        page_hashes = _fold_array(prefixes[block_of], pages).tolist()
        exp, normal = math.exp, _unit_to_standard_normal
        sigma = self.config.block_variation_sigma
        block_factors = [exp(sigma * normal(_unit(h))) for h in block_hashes]
        sigma = self.config.page_variation_sigma
        return [block_factors[b] * exp(sigma * normal(_unit(h)))
                for b, h in zip(block_of.tolist(), page_hashes)]
