"""Page-mapped flash translation layer with preconditioned state and GC.

The evaluation reads a *preconditioned* SSD: most data was written long
before the measured window (the paper's "cold read ratio" is the fraction
of reads to pages never updated during the trace).  We model that exactly:

* logical pages never written during the simulation map **identity-style**
  onto the first ``(1 - OP)`` fraction of physical blocks in stripe order —
  these are the *pre-existing* pages whose retention ages the reliability
  sampler draws from the steady-state refresh distribution;
* pages written during the simulation allocate from per-plane write
  frontiers fed by the over-provisioning pool, and carry their true
  (simulated) ages;
* greedy garbage collection reclaims the emptiest block of a plane when its
  free pool runs dry, emitting the page-copy list the simulator turns into
  SSD-internal read+program traffic.

The FTL speaks integers.  A physical page is its flat page number (ppn) in
the stripe order of :class:`~repro.nand.geometry.AddressMapper`,
``ppn = (block * pages_per_block + page) * total_planes + pidx``, and a
block is ``(pidx, block)`` with ``pidx = ppn % total_planes`` the flat
plane index.  The operations return plain tuples:

* :meth:`PageMapFtl.read` -> ``(ppn, written_at_us, block_read_count)``;
* :meth:`PageMapFtl.write` -> ``(ppn, copies, erased)``;
* :meth:`PageMapFtl.relocate_block` -> ``(copies, erased)``, or ``None``;

where ``copies`` lists the ``(src_ppn, dst_ppn)`` live-page moves and
``erased`` the ``(pidx, block)`` blocks erased, both in FTL order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import SSDConfig
from ..errors import CapacityError, GeometryError, TraceError

#: ``(src_ppn, dst_ppn)`` live-page moves of one FTL operation
Copies = List[Tuple[int, int]]
#: ``(pidx, block)`` blocks erased by one FTL operation
Erases = List[Tuple[int, int]]


class _PlaneState:
    """Per-plane allocator state."""

    __slots__ = ("free_blocks", "active_block", "next_page")

    def __init__(self, free_blocks: List[int]):
        self.free_blocks = free_blocks
        self.active_block: Optional[int] = None
        self.next_page = 0


class PageMapFtl:
    """Lazy page-mapped FTL over the configured geometry."""

    def __init__(self, config: SSDConfig):
        self.config = config
        g = config.geometry
        self._planes_total = g.total_planes
        self._pages_per_block = g.pages_per_block
        self._blocks_per_plane = g.blocks_per_plane
        self._total_pages = g.total_pages
        #: ppns per block row: ``ppn // _block_stride`` is the block number
        self._block_stride = g.pages_per_block * g.total_planes
        if g.blocks_per_plane < 3:
            raise CapacityError("page-mapped GC needs >= 3 blocks per plane")
        # user-visible blocks per plane (identity / preconditioned region).
        # At least two spare blocks per plane: with the pool never consumed
        # below one block until invalid pages exist, greedy GC always has a
        # relocation target (any victim holds <= pages_per_block - 1 live
        # pages, which fits the reserved block).
        self.user_blocks_per_plane = max(
            1,
            min(
                int(g.blocks_per_plane * (1.0 - config.over_provisioning)),
                g.blocks_per_plane - 2,
            ),
        )
        self.user_pages = (
            self.user_blocks_per_plane * g.pages_per_block * self._planes_total
        )
        # logical -> physical (only entries for pages written this run, or
        # cold pages relocated by GC)
        self._map: Dict[int, int] = {}
        self._reverse: Dict[int, int] = {}
        #: ppn -> simulated write timestamp (absent = pre-existing data)
        self.written_at_us: Dict[int, float] = {}
        # per-block accounting, keyed by flat plane index
        self._invalid_counts: Dict[Tuple[int, int], int] = {}
        self._block_reads: Dict[Tuple[int, int], int] = {}
        self._planes: List[_PlaneState] = [
            _PlaneState(list(range(self.user_blocks_per_plane, g.blocks_per_plane)))
            for _ in range(self._planes_total)
        ]
        self._write_cursor = 0  # round-robin plane selector for writes
        self._in_gc = False
        self.gc_runs = 0
        self.pages_copied_by_gc = 0
        self.disturb_relocations = 0
        #: per-block erase counts (wear accounting)
        self.erase_counts: Dict[Tuple[int, int], int] = {}

    # --- helpers -----------------------------------------------------------------

    def _ppn_identity(self, lpn: int) -> int:
        """Identity placement of a pre-existing logical page."""
        return lpn

    def _plane_and_block(self, ppn: int) -> Tuple[int, int]:
        """``(pidx, block)`` of a physical page (range-checked)."""
        if not 0 <= ppn < self._total_pages:
            raise GeometryError(
                f"ppn={ppn} out of range [0, {self._total_pages})")
        return ppn % self._planes_total, ppn // self._block_stride

    def _check_block(self, pidx: int, block: int) -> None:
        if not 0 <= pidx < self._planes_total:
            raise GeometryError(
                f"plane index={pidx} out of range [0, {self._planes_total})")
        if not 0 <= block < self._blocks_per_plane:
            raise GeometryError(
                f"block={block} out of range [0, {self._blocks_per_plane})")

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.user_pages:
            raise TraceError(f"lpn {lpn} outside user space [0, {self.user_pages})")

    def current_ppn(self, lpn: int) -> int:
        """Physical page currently holding ``lpn`` (identity if untouched)."""
        self._check_lpn(lpn)
        return self._map.get(lpn, self._ppn_identity(lpn))

    # --- reads -----------------------------------------------------------------------

    def read(self, lpn: int) -> Tuple[int, Optional[float], int]:
        """Resolve a logical read and bump its block's read counter:
        ``(ppn, written_at_us, block_read_count)``, where
        ``written_at_us`` is ``None`` for a cold page (never written during
        this simulation)."""
        ppn, written = self.resolve_fast(lpn)
        key = self._plane_and_block(ppn)
        reads = self._block_reads.get(key, 0) + 1
        self._block_reads[key] = reads
        return ppn, written, reads

    def resolve_fast(self, lpn: int) -> tuple:
        """``(ppn, written_at_us)`` of one logical read, nothing else.

        :meth:`read` without the read-counter bump: the read pipeline's
        memoized route carries the ``block_reads`` key and bumps the
        counter itself (same key values, same per-lpn order, so the counts
        match :meth:`read` exactly).
        """
        if not 0 <= lpn < self.user_pages:
            raise TraceError(
                f"lpn {lpn} outside user space [0, {self.user_pages})")
        ppn = self._map.get(lpn)
        if ppn is None:
            ppn = self._ppn_identity(lpn)
        return ppn, self.written_at_us.get(ppn)

    # --- writes ------------------------------------------------------------------------

    def write(self, lpn: int, now_us: float) -> Tuple[int, Copies, Erases]:
        """Allocate a fresh physical page for ``lpn``; may trigger GC.

        Returns ``(ppn, copies, erased)``: the new page plus the traffic of
        any GC the allocation ran."""
        self._check_lpn(lpn)
        copies: Copies = []
        erased: Erases = []
        pidx = self._write_cursor
        self._write_cursor = (self._write_cursor + 1) % self._planes_total
        # Allocate first: GC inside the allocation may relocate this lpn's
        # current page, so the superseded location must be resolved *after*
        # allocation for the invalidation bookkeeping to stay consistent.
        ppn = self._allocate_page(pidx, now_us, copies, erased)
        old_ppn = self.current_ppn(lpn)
        key = self._plane_and_block(old_ppn)
        self._invalid_counts[key] = self._invalid_counts.get(key, 0) + 1
        self._reverse.pop(old_ppn, None)
        self.written_at_us.pop(old_ppn, None)
        self._map[lpn] = ppn
        self._reverse[ppn] = lpn
        self.written_at_us[ppn] = now_us
        return ppn, copies, erased

    # --- allocation & GC ---------------------------------------------------------------------

    def _allocate_page(
        self,
        pidx: int,
        now_us: float,
        copies: Copies,
        erased: Erases,
    ) -> int:
        state = self._planes[pidx]
        self._retire_full_active(state)
        if state.active_block is None:
            # keep one block in reserve so GC relocations never deadlock;
            # GC is a no-op when no block holds any invalid page
            if not self._in_gc and len(state.free_blocks) <= 1:
                self._collect_garbage(pidx, now_us, copies, erased)
                self._retire_full_active(state)
            if state.active_block is None:
                if not state.free_blocks:
                    raise CapacityError(
                        f"plane {pidx}: no free blocks and nothing to collect"
                    )
                state.active_block = self._pick_free_block(pidx, state)
                state.next_page = 0
        block = state.active_block
        page = state.next_page
        state.next_page = page + 1
        pages_per_block = self._pages_per_block
        if not (0 <= pidx < self._planes_total
                and 0 <= block < self._blocks_per_plane
                and 0 <= page < pages_per_block):
            self._check_block(pidx, block)
            raise GeometryError(
                f"page={page} out of range [0, {pages_per_block})")
        return (block * pages_per_block + page) * self._planes_total + pidx

    def _pick_free_block(self, pidx: int, state: _PlaneState) -> int:
        """Wear-levelled allocation: take the least-erased free block (FIFO
        among ties), spreading P/E cycles across the pool."""
        best_i = min(
            range(len(state.free_blocks)),
            key=lambda i: self.erase_counts.get(
                (pidx, state.free_blocks[i]), 0
            ),
        )
        return state.free_blocks.pop(best_i)

    def _retire_full_active(self, state: _PlaneState) -> None:
        """A completely written active block becomes a regular data block
        (and thereby a GC candidate)."""
        if state.active_block is not None and state.next_page >= self._pages_per_block:
            state.active_block = None
            state.next_page = 0

    def _block_valid_count(self, pidx: int, block: int) -> int:
        return self._pages_per_block - self._invalid_counts.get((pidx, block), 0)

    def _collect_garbage(
        self,
        pidx: int,
        now_us: float,
        copies: Copies,
        erased: Erases,
    ) -> None:
        """Greedy GC: reclaim the block with the fewest valid pages.

        A no-op when every candidate is fully valid — collecting such a
        block would copy a whole block's pages for zero net space."""
        state = self._planes[pidx]
        free = set(state.free_blocks)
        candidates = [
            b for b in range(self._blocks_per_plane)
            if b != state.active_block and b not in free
        ]
        if not candidates:
            return
        victim = min(candidates, key=lambda b: self._block_valid_count(pidx, b))
        if self._invalid_counts.get((pidx, victim), 0) == 0:
            return
        self.gc_runs += 1
        self._reclaim_block(pidx, victim, now_us, copies, erased)

    def _reclaim_block(
        self,
        pidx: int,
        victim: int,
        now_us: float,
        copies: Copies,
        erased: Erases,
    ) -> None:
        """Relocate every live page of ``victim``, erase it, and return it
        to the plane's free pool.  Shared by GC and read-disturb
        relocation."""
        state = self._planes[pidx]
        self._in_gc = True
        # the victim's pages in page order: one block row, one plane
        first = victim * self._block_stride + pidx
        # relocate live pages: destination pages come from the same plane's
        # remaining frontier (the victim is erased afterwards, so GC frees
        # net space as long as the victim is not fully valid)
        for src_ppn in range(first, first + self._block_stride,
                             self._planes_total):
            lpn = self._reverse.get(src_ppn)
            if lpn is None:
                # identity-region page: live iff its lpn was never remapped
                if victim >= self.user_blocks_per_plane:
                    continue  # OP-region page with no owner: dead
                implied_lpn = src_ppn
                if self._map.get(implied_lpn, src_ppn) != src_ppn:
                    continue  # superseded: dead
                lpn = implied_lpn
            elif self._map.get(lpn) != src_ppn:
                continue  # stale reverse entry
            dst_ppn = self._allocate_page(pidx, now_us, copies, erased)
            self._map[lpn] = dst_ppn
            self._reverse.pop(src_ppn, None)
            self._reverse[dst_ppn] = lpn
            self.written_at_us[dst_ppn] = now_us
            self.written_at_us.pop(src_ppn, None)
            copies.append((src_ppn, dst_ppn))
            self.pages_copied_by_gc += 1
        # the victim is now empty: erase and return to the pool
        self._invalid_counts.pop((pidx, victim), None)
        self._block_reads.pop((pidx, victim), None)
        self.erase_counts[(pidx, victim)] = self.erase_counts.get((pidx, victim), 0) + 1
        state.free_blocks.append(victim)
        erased.append((pidx, victim))
        self._in_gc = False

    # --- read-disturb relocation --------------------------------------------------------------

    def block_read_count(self, pidx: int, block: int) -> int:
        """Reads accumulated by a block since its last erase."""
        return self._block_reads.get((pidx, block), 0)

    def relocate_block(self, pidx: int, block: int, now_us: float
                       ) -> Optional[Tuple[Copies, Erases]]:
        """Proactively rewrite a block (read-disturb management): move its
        live pages elsewhere and erase it, clearing the read counter.

        Returns the relocation traffic ``(copies, erased)``, or ``None``
        when relocation is not currently safe (the block is the active
        frontier or in the free pool, or the plane has no spare block to
        relocate into)."""
        self._check_block(pidx, block)
        state = self._planes[pidx]
        if block in state.free_blocks:
            return None
        if block == state.active_block:
            # an overheated write frontier is closed early; its unwritten
            # tail comes back when the block is erased below
            state.active_block = None
            state.next_page = 0
        if not state.free_blocks:
            return None  # defer until GC replenishes the pool
        copies: Copies = []
        erased: Erases = []
        self._reclaim_block(pidx, block, now_us, copies, erased)
        self.disturb_relocations += 1
        return copies, erased
