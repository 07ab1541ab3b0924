"""Behavioural flash-die model.

This is the *functional* model of a RiF-capable flash die (Fig. 9 of the
paper): page buffers and the command set — ``READ`` (sense at given VREF
offsets), ``READ_RETRY`` (sense at a vendor retry-table level), and
``SWIFT_READ`` (the in-chip double sense of [32] that derives near-optimal
VREF from the ones-count deviation).  Timing is *not* modelled here — the
discrete-event simulator in :mod:`repro.ssd` owns time; this model owns data
and error physics, and is what the ODEAR engine in :mod:`repro.core` drives
in end-to-end experiments.  Grown bad blocks and offline dies are modelled
where the SSD applies them (:mod:`repro.faults`), not per die.

Error physics: the die tracks each page's wear/retention condition and
derives the bit-error probability of every sense from the TLC VTH model, so
retry-table steps and Swift-Read offsets genuinely change the error rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import ConfigError, GeometryError
from ..rng import SeedLike, make_rng
from .randomizer import Randomizer
from .retry_table import RetryTable
from .vth import PageType, TlcVthModel

#: Retention months below which we clamp: a just-programmed page still has a
#: small nonzero RBER from program noise; zero would make several baselines
#: degenerate.
_MIN_RETENTION_MONTHS = 1e-3


class FlashCommand(Enum):
    """Commands a die accepts (subset relevant to the read path)."""

    READ = auto()
    READ_RETRY = auto()
    SWIFT_READ = auto()
    PROGRAM = auto()
    ERASE = auto()


@dataclass
class _StoredPage:
    """Internal record of a programmed page."""

    scrambled_bits: np.ndarray
    programmed_at_days: float
    reads_since_program: int = 0


@dataclass(frozen=True)
class ReadResult:
    """Outcome of a sense + buffer-out sequence."""

    bits: np.ndarray              # descrambled page-buffer content
    true_rber: float              # model error probability of this sense
    n_bit_errors: int             # actual injected errors
    vref_offsets: Dict[int, float]
    command: FlashCommand
    senses: int = 1               # senses performed inside the chip


class FlashDie:
    """A single flash die with per-plane page buffers.

    Parameters
    ----------
    blocks, pages_per_block, page_bits:
        Functional geometry.  ``page_bits`` is typically one LDPC codeword.
    planes:
        Number of planes; each has an independent page buffer.
    vth:
        Threshold-voltage model used to derive sense error rates.
    randomizer:
        Optional in-die scrambler.  The default is ``None`` (store bits as
        given): in the RiF architecture the *controller* randomizes before
        ECC encoding, so the die's page buffer must hold valid (rearranged)
        codewords for the on-die RP to be meaningful.  Pass a
        :class:`~repro.nand.randomizer.Randomizer` to model legacy dies that
        scramble internally.
    """

    def __init__(
        self,
        blocks: int = 8,
        pages_per_block: int = 16,
        page_bits: int = 4608,
        planes: int = 1,
        vth: Optional[TlcVthModel] = None,
        randomizer: Optional[Randomizer] = None,
        retry_table: Optional[RetryTable] = None,
        seed: SeedLike = 11,
    ):
        if min(blocks, pages_per_block, page_bits, planes) < 1:
            raise ConfigError("die geometry values must be positive")
        self.blocks = blocks
        self.pages_per_block = pages_per_block
        self.page_bits = page_bits
        self.planes = planes
        self.vth = vth or TlcVthModel()
        self.randomizer = randomizer  # None = controller-side randomization
        self.retry_table = retry_table or RetryTable()
        self._rng = make_rng(seed)
        self._pages: Dict[Tuple[int, int, int], _StoredPage] = {}
        self._pe_cycles: Dict[Tuple[int, int], float] = {}
        self.now_days: float = 0.0
        self._page_buffers: Dict[int, Optional[np.ndarray]] = {
            p: None for p in range(planes)
        }

    def cache_stats(self) -> list:
        """Hit/miss counters of the VTH model's hot-path memo caches (the
        die's per-read error physics all flow through them)."""
        return self.vth.cache_stats()

    # --- condition control ----------------------------------------------------------

    def advance_time(self, days: float) -> None:
        """Advance the die's wall-clock (retention ages grow)."""
        if days < 0:
            raise ConfigError("cannot advance time backwards")
        self.now_days += days

    def set_block_pe_cycles(self, plane: int, block: int, pe_cycles: float) -> None:
        """Set the wear level of a block (campaign-style conditioning)."""
        self._check_plane_block(plane, block)
        if pe_cycles < 0:
            raise ConfigError("pe_cycles must be non-negative")
        self._pe_cycles[(plane, block)] = pe_cycles

    def block_pe_cycles(self, plane: int, block: int) -> float:
        self._check_plane_block(plane, block)
        return self._pe_cycles.get((plane, block), 0.0)

    # --- program / erase --------------------------------------------------------------

    def program(self, plane: int, block: int, page: int, bits: np.ndarray) -> None:
        """Program a page: scramble and store."""
        self._check_addr(plane, block, page)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.page_bits,):
            raise ConfigError(
                f"page data must be {self.page_bits} bits, got {bits.shape}"
            )
        if self.randomizer is not None:
            key = self._scramble_key(plane, block, page)
            stored_bits = self.randomizer.scramble(bits, key)
        else:
            stored_bits = bits.copy()
        self._pages[(plane, block, page)] = _StoredPage(
            scrambled_bits=stored_bits,
            programmed_at_days=self.now_days,
        )

    def erase(self, plane: int, block: int) -> None:
        """Erase a block (drops all pages, bumps wear by one cycle)."""
        self._check_plane_block(plane, block)
        for page in range(self.pages_per_block):
            self._pages.pop((plane, block, page), None)
        self._pe_cycles[(plane, block)] = self._pe_cycles.get((plane, block), 0.0) + 1

    # --- read path ----------------------------------------------------------------------

    def page_type(self, page: int) -> PageType:
        """Page type by position on the wordline (LSB/CSB/MSB interleave)."""
        return (PageType.LSB, PageType.CSB, PageType.MSB)[page % 3]

    def sense_rber(
        self,
        plane: int,
        block: int,
        page: int,
        vref_offsets: Optional[Dict[int, float]] = None,
    ) -> float:
        """Model RBER of sensing this page now with the given offsets."""
        stored = self._stored(plane, block, page)
        retention_months = max(
            (self.now_days - stored.programmed_at_days) / 30.0, _MIN_RETENTION_MONTHS
        )
        pe = self._pe_cycles.get((plane, block), 0.0)
        return self.vth.page_rber(
            self.page_type(page),
            pe_cycles=pe,
            retention_months=retention_months,
            vref_offsets=vref_offsets,
        )

    def read(
        self,
        plane: int,
        block: int,
        page: int,
        vref_offsets: Optional[Dict[int, float]] = None,
        command: FlashCommand = FlashCommand.READ,
        senses: int = 1,
    ) -> ReadResult:
        """Sense a page into the plane's buffer and return its (descrambled)
        content with errors injected at the model rate."""
        stored = self._stored(plane, block, page)
        rber = self.sense_rber(plane, block, page, vref_offsets)
        noisy = self._inject_errors(stored.scrambled_bits, rber)
        stored.reads_since_program += senses
        self._page_buffers[plane] = noisy
        if self.randomizer is not None:
            key = self._scramble_key(plane, block, page)
            bits = self.randomizer.descramble(noisy, key)
        else:
            bits = noisy
        n_err = self._count_errors(plane, block, page, bits)
        return ReadResult(
            bits=bits,
            true_rber=rber,
            n_bit_errors=n_err,
            vref_offsets=dict(vref_offsets or {}),
            command=command,
            senses=senses,
        )

    def read_retry(
        self, plane: int, block: int, page: int, level: int
    ) -> ReadResult:
        """Sense with the vendor retry table's ``level`` offsets."""
        step = self.retry_table.step(level)
        return self.read(
            plane,
            block,
            page,
            vref_offsets=step.offset_map(),
            command=FlashCommand.READ_RETRY,
        )

    #: Representative boundary for the Swift-Read estimation sense (VR5: a
    #: high boundary carries the strongest leakage signal).
    SWIFT_REP_BOUNDARY = 5

    def swift_read(self, plane: int, block: int, page: int) -> ReadResult:
        """The Swift-Read command of [32]: one sense at the manufacturer's
        representative VREF yields a ones-count whose deviation from the
        randomization-guaranteed expectation identifies the distribution
        drift; a second sense at the derived near-optimal VREF follows
        immediately.  Both senses happen inside the chip — one command,
        two tR."""
        offsets = self.estimate_swift_offsets(plane, block, page)
        second = self.read(
            plane,
            block,
            page,
            vref_offsets=offsets,
            command=FlashCommand.SWIFT_READ,
        )
        return ReadResult(
            bits=second.bits,
            true_rber=second.true_rber,
            n_bit_errors=second.n_bit_errors,
            vref_offsets=offsets,
            command=FlashCommand.SWIFT_READ,
            senses=2,
        )

    def estimate_swift_offsets(
        self, plane: int, block: int, page: int
    ) -> Dict[int, float]:
        """First half of a Swift-Read: sense the wordline at the
        representative VREF and invert the measured above-level fraction
        into per-boundary corrections.

        The measurement itself is the analytic above-level fraction of the
        page's true condition plus binomial sampling noise at the page size
        — the estimator then inverts it through a fresh-shape forward model
        (it cannot know the true widening), which is what makes the result
        near-optimal rather than exact."""
        stored = self._stored(plane, block, page)
        retention_months = max(
            (self.now_days - stored.programmed_at_days) / 30.0, _MIN_RETENTION_MONTHS
        )
        pe = self._pe_cycles.get((plane, block), 0.0)
        rep = self.SWIFT_REP_BOUNDARY
        level = self.vth.default_vrefs[rep - 1]
        true_above = self.vth.fraction_above(level, pe, retention_months)
        noise = self._rng.binomial(self.page_bits, true_above) / self.page_bits
        return self.vth.swift_offsets(noise, self.page_type(page), rep)

    def page_buffer(self, plane: int = 0) -> np.ndarray:
        """Raw (still scrambled) content of a plane's page buffer — what the
        on-die RP module sees."""
        buf = self._page_buffers[plane]
        if buf is None:
            raise GeometryError(f"plane {plane} page buffer is empty")
        return buf

    # --- internals ------------------------------------------------------------------------

    def _scramble_key(self, plane: int, block: int, page: int) -> int:
        return ((plane * self.blocks) + block) * self.pages_per_block + page + 1

    def _inject_errors(self, bits: np.ndarray, rber: float) -> np.ndarray:
        flips = self._rng.random(bits.size) < rber
        return (bits ^ flips.astype(np.uint8)).astype(np.uint8)

    def _count_errors(self, plane: int, block: int, page: int, bits: np.ndarray) -> int:
        stored = self._pages[(plane, block, page)]
        if self.randomizer is not None:
            key = self._scramble_key(plane, block, page)
            original = self.randomizer.descramble(stored.scrambled_bits, key)
        else:
            original = stored.scrambled_bits
        return int(np.sum(bits != original))

    def _stored(self, plane: int, block: int, page: int) -> _StoredPage:
        self._check_addr(plane, block, page)
        try:
            return self._pages[(plane, block, page)]
        except KeyError:
            raise GeometryError(
                f"page (plane={plane}, block={block}, page={page}) is not programmed"
            ) from None

    def _check_plane_block(self, plane: int, block: int) -> None:
        if not 0 <= plane < self.planes:
            raise GeometryError(f"plane {plane} out of range")
        if not 0 <= block < self.blocks:
            raise GeometryError(f"block {block} out of range")

    def _check_addr(self, plane: int, block: int, page: int) -> None:
        self._check_plane_block(plane, block)
        if not 0 <= page < self.pages_per_block:
            raise GeometryError(f"page {page} out of range")
