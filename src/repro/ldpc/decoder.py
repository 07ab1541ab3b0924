"""LDPC decoder with iteration accounting.

:class:`MinSumDecoder` is normalized min-sum belief propagation, the
algorithm family of commercial flash LDPC engines ([12], [13], [39]).
Fully vectorised: the code is regular, so check-side messages reshape to
``(m, c)`` and variable-side messages to ``(n, r)`` dense arrays.

It stops early when the syndrome becomes zero and reports the iteration
count, which drives the tECC latency model (decoding latency grows with
RBER — Fig. 3(b))."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CodecError
from .qc_matrix import QcLdpcCode


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of a decode attempt."""

    bits: np.ndarray          # hard-decision output word
    success: bool             # True iff the syndrome is zero
    iterations: int           # iterations actually executed (>= 1)
    initial_syndrome_weight: int

    @property
    def failed(self) -> bool:
        return not self.success


class MinSumDecoder:
    """Normalized min-sum decoder over a BSC hard-input channel.

    Parameters
    ----------
    code:
        The QC-LDPC code.
    max_iterations:
        Iteration cap; exhausting it is a decoding failure (the paper's
        engine caps at 20).
    normalization:
        Min-sum scaling factor (0.75 is the usual hardware choice).
    channel_p:
        Assumed BSC crossover probability, setting the input LLR magnitude.
    """

    def __init__(
        self,
        code: QcLdpcCode,
        max_iterations: int = 20,
        normalization: float = 0.75,
        channel_p: float = 0.005,
    ):
        if max_iterations < 1:
            raise CodecError("max_iterations must be >= 1")
        if not 0 < channel_p < 0.5:
            raise CodecError("channel_p must be in (0, 0.5)")
        self.code = code
        self.max_iterations = max_iterations
        self.normalization = normalization
        self.llr_magnitude = math.log((1.0 - channel_p) / channel_p)

    def decode(self, received: np.ndarray) -> DecodeResult:
        """Decode a received hard-decision word."""
        code = self.code
        received = np.asarray(received, dtype=np.uint8)
        if received.shape != (code.n,):
            raise CodecError(f"expected {code.n}-bit word, got {received.shape}")
        # channel LLR: positive = bit 0 more likely
        llr = np.where(received == 0, self.llr_magnitude, -self.llr_magnitude)
        return self.decode_llr(llr)

    def decode_llr(self, llr: np.ndarray) -> DecodeResult:
        """Decode from per-bit channel LLRs (positive = bit 0 more likely).

        This is the soft-input entry point used by multi-read soft sensing
        (:mod:`repro.ldpc.soft`); :meth:`decode` wraps it with the
        fixed-magnitude hard-input LLRs of a single sense."""
        code = self.code
        llr = np.asarray(llr, dtype=float)
        if llr.shape != (code.n,):
            raise CodecError(f"expected {code.n} LLRs, got {llr.shape}")
        received = (llr < 0).astype(np.uint8)

        initial_sw = code.syndrome_weight(received)
        if initial_sw == 0:
            return DecodeResult(
                bits=received.copy(), success=True, iterations=1,
                initial_syndrome_weight=0,
            )

        check_vars = code.check_vars          # (m, c)
        var_edges = code.var_edges            # (n, r) flat indices into (m*c)

        c2v = np.zeros((code.m, code.c))
        v2c_flat = np.broadcast_to(llr[check_vars].ravel(), (code.m * code.c,)).copy()

        hard = received.copy()
        iterations = self.max_iterations
        for it in range(1, self.max_iterations + 1):
            v2c = v2c_flat.reshape(code.m, code.c)
            # --- check node update (normalized min-sum) ---
            signs = np.sign(v2c)
            signs[signs == 0] = 1.0
            total_sign = np.prod(signs, axis=1, keepdims=True)
            mags = np.abs(v2c)
            order = np.argsort(mags, axis=1)
            min1_idx = order[:, :1]
            min1 = np.take_along_axis(mags, min1_idx, axis=1)
            min2 = np.take_along_axis(mags, order[:, 1:2], axis=1)
            out_mag = np.where(
                np.arange(code.c)[None, :] == min1_idx, min2, min1
            )
            c2v = self.normalization * total_sign * signs * out_mag

            # --- variable node update ---
            c2v_flat = c2v.ravel()
            incoming = c2v_flat[var_edges]            # (n, r)
            posterior = llr + incoming.sum(axis=1)
            hard = (posterior < 0).astype(np.uint8)
            if code.syndrome_weight(hard) == 0:
                iterations = it
                break
            extrinsic = posterior[:, None] - incoming  # (n, r)
            v2c_flat = np.empty(code.m * code.c)
            v2c_flat[var_edges.ravel()] = extrinsic.ravel()

        success = code.syndrome_weight(hard) == 0
        return DecodeResult(
            bits=hard, success=success, iterations=iterations,
            initial_syndrome_weight=initial_sw,
        )
