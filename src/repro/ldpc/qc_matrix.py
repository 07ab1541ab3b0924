"""QC-LDPC parity-check matrix construction.

The parity-check matrix H is an ``r x c`` block matrix of ``t x t``
circulants Q(C[i][j]) (Fig. 13 of the paper), where Q(s) is the identity
matrix cyclically shifted **right** by ``s``: row ``a`` of Q(s) has its 1 in
column ``(a + s) mod t``.

We use array-code shifts ``C[i][j] = ((i + 1) * j) mod t``.  Two properties
matter:

* **Girth**: a 4-cycle requires ``(C[i1][j1] - C[i1][j2]) ==
  (C[i2][j1] - C[i2][j2]) (mod t)``, i.e. ``(i1 - i2) * (j1 - j2) = 0
  (mod t)``.  With ``r = 4`` and ``c = 36`` the product is bounded by
  ``3 * 35 = 105 < t`` for every shipped ``t >= 128``, so the Tanner graph
  has girth >= 6 by construction (verified in tests).
* **Non-trivial first block row**: ``C[0][j] = j`` is nonzero for ``j > 0``,
  so the codeword-rearrangement optimisation of SecV-B actually has shifts
  to undo (a plain ``i * j`` construction would make the first row all
  identities and the rearrangement vacuous).

Because every block column carries exactly one circulant per block row, the
code is regular: column weight ``r``, row weight ``c``.
"""

from __future__ import annotations

from typing import Optional

from functools import cached_property

import numpy as np

from ..config import LdpcCodeConfig
from ..errors import CodecError


class QcLdpcCode:
    """A constructed QC-LDPC code with the index structures decoders need."""

    def __init__(self, config: Optional[LdpcCodeConfig] = None):
        self.config = config or LdpcCodeConfig()
        r, c, t = (
            self.config.block_rows,
            self.config.block_cols,
            self.config.circulant_size,
        )
        self.r, self.c, self.t = r, c, t
        self.n = self.config.n
        self.m = self.config.m
        self.k = self.config.k
        #: shift coefficient per (block row, block col)
        self.shifts = np.array(
            [[((i + 1) * j) % t for j in range(c)] for i in range(r)], dtype=np.int64
        )
        # enforce the girth-6 condition: a 4-cycle exists iff
        # (i1-i2)*(j1-j2) == 0 (mod t) for some block rows/cols — impossible
        # when t > (r-1)*(c-1), and for smaller t whenever t is a prime
        # larger than both r-1 and c-1.
        for di in range(1, r):
            for dj in range(1, c):
                if (di * dj) % t == 0:
                    raise CodecError(
                        f"circulant size t={t} admits 4-cycles for a {r}x{c} "
                        f"block structure (di={di}, dj={dj}); use t > "
                        f"{(r - 1) * (c - 1)} or a prime t > {c - 1}"
                    )

    # --- index structures -------------------------------------------------------

    @cached_property
    def check_vars(self) -> np.ndarray:
        """(m, c) array: the variable indices participating in each check.

        Check ``i*t + a`` (block row ``i``, row-in-block ``a``) connects, for
        every block column ``j``, variable ``j*t + (a + C[i][j]) mod t``.
        """
        a = np.arange(self.t)
        rows = []
        for i in range(self.r):
            cols = [(j * self.t + (a + self.shifts[i, j]) % self.t) for j in range(self.c)]
            rows.append(np.stack(cols, axis=1))  # (t, c)
        return np.concatenate(rows, axis=0).astype(np.int64)

    @cached_property
    def var_edges(self) -> np.ndarray:
        """(n, r) array: for each variable, the flat edge indices (into the
        check-major ``(m*c)`` edge ordering) of its r incident edges —
        ordered by block row."""
        edges = np.empty((self.n, self.r), dtype=np.int64)
        t = self.t
        b = np.arange(t)
        for j in range(self.c):
            vars_j = j * t + b
            for i in range(self.r):
                a = (b - self.shifts[i, j]) % t  # row-in-block of the check
                check = i * t + a
                edges[vars_j, i] = check * self.c + j
        return edges

    @cached_property
    def row0_gather(self) -> np.ndarray:
        """(n,) flat gather indices of the block-row-0 rotation: position
        ``j*t + a`` of the output maps to codeword bit
        ``j*t + (a + C[0][j]) mod t`` — column ``a`` of segment ``j``
        after the left-rotation by its block-row-0 shift.

        One fancy-index with this table replaces the per-circulant
        ``np.roll`` Python loop in :mod:`repro.ldpc.syndrome` (codeword
        rearrangement and the pruned syndrome are both this rotation, the
        latter followed by an XOR reduction)."""
        a = np.arange(self.t)
        within = (a[None, :] + self.shifts[0][:, None]) % self.t
        base = np.arange(self.c)[:, None] * self.t
        return (within + base).ravel().astype(np.intp)

    @cached_property
    def row0_scatter(self) -> np.ndarray:
        """(n,) flat inverse of :attr:`row0_gather`: undoes the
        rearrangement on the read path before off-chip decoding."""
        a = np.arange(self.t)
        within = (a[None, :] - self.shifts[0][:, None]) % self.t
        base = np.arange(self.c)[:, None] * self.t
        return (within + base).ravel().astype(np.intp)

    @cached_property
    def dense_h(self) -> np.ndarray:
        """Dense (m, n) uint8 parity-check matrix.  Only materialise for
        small codes — at paper scale this is 4096 x 36864."""
        h = np.zeros((self.m, self.n), dtype=np.uint8)
        rows = np.repeat(np.arange(self.m), self.c)
        h[rows, self.check_vars.ravel()] = 1
        return h

    # --- basic operations ------------------------------------------------------------

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        """Full syndrome vector S = H . bits (mod 2), shape (m,)."""
        bits = self._check_word(bits)
        return np.bitwise_xor.reduce(bits[self.check_vars], axis=1)

    def syndrome_weight(self, bits: np.ndarray) -> int:
        """Hamming weight of the full syndrome."""
        return int(self.syndrome(bits).sum())

    def is_codeword(self, bits: np.ndarray) -> bool:
        """True iff every parity check is satisfied."""
        return self.syndrome_weight(bits) == 0

    def _check_word(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.n,):
            raise CodecError(f"expected {self.n}-bit word, got shape {bits.shape}")
        return bits

    # --- metadata ---------------------------------------------------------------------

    @property
    def row_weight(self) -> int:
        return self.c

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QcLdpcCode(r={self.r}, c={self.c}, t={self.t}, "
            f"n={self.n}, k={self.k}, rate={self.config.rate:.3f})"
        )
