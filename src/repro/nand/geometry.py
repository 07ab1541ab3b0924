"""Flash physical addressing and logical-to-physical striping math.

A physical page is identified by the 5-tuple (channel, die, plane, block,
page).  :class:`AddressMapper` provides the canonical flat numbering used by
the FTL and the stripe order that spreads consecutive physical page numbers
across channels first, then dies, then planes — the layout that maximises
read parallelism for sequential I/O (SecIII-B3 of the paper assumes it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import NandGeometry
from ..errors import GeometryError


@dataclass(frozen=True, order=True)
class PageAddress:
    """A fully-qualified physical page address."""

    channel: int
    die: int
    plane: int
    block: int
    page: int

    def plane_key(self) -> tuple:
        """Key identifying the plane this page lives in."""
        return (self.channel, self.die, self.plane)

    def block_key(self) -> tuple:
        """Key identifying the block this page lives in."""
        return (self.channel, self.die, self.plane, self.block)


class AddressMapper:
    """Bidirectional mapping between flat page numbers and
    :class:`PageAddress`, plus plane/block numbering helpers.

    Flat page-number layout (stripe order)::

        ppn = ((page * planes_total + plane_index) ...)

    Concretely, consecutive ppns walk channels, then dies, then planes, then
    pages within the current block row, so a 256-KiB host read touches as
    many channels/dies as possible.
    """

    def __init__(self, geometry: NandGeometry):
        self.geometry = geometry
        g = geometry
        self._planes_total = g.channels * g.dies_per_channel * g.planes_per_die
        self._total_pages = g.total_pages

    # --- plane numbering -----------------------------------------------------

    def plane_index(self, channel: int, die: int, plane: int) -> int:
        """Flat plane index in stripe order: channel varies fastest."""
        g = self.geometry
        self._check_range(channel, g.channels, "channel")
        self._check_range(die, g.dies_per_channel, "die")
        self._check_range(plane, g.planes_per_die, "plane")
        return plane * (g.channels * g.dies_per_channel) + die * g.channels + channel

    def plane_from_index(self, idx: int) -> tuple:
        """Inverse of :meth:`plane_index` → (channel, die, plane)."""
        g = self.geometry
        self._check_range(idx, self._planes_total, "plane index")
        channel = idx % g.channels
        rest = idx // g.channels
        die = rest % g.dies_per_channel
        plane = rest // g.dies_per_channel
        return channel, die, plane

    # --- page numbering ------------------------------------------------------

    def ppn(self, addr: PageAddress) -> int:
        """Flat physical page number of ``addr`` in stripe order."""
        g = self.geometry
        self._check_addr(addr)
        pidx = self.plane_index(addr.channel, addr.die, addr.plane)
        page_in_plane = addr.block * g.pages_per_block + addr.page
        return page_in_plane * self._planes_total + pidx

    def address(self, ppn: int) -> PageAddress:
        """Inverse of :meth:`ppn`."""
        _pidx, channel, die, plane, block, page = self.decode(ppn)
        return PageAddress(channel, die, plane, block, page)

    def decode(self, ppn: int) -> tuple:
        """``(plane_index, channel, die, plane, block, page)`` of ``ppn``:
        the range-checked integer decode behind :meth:`address`, for
        callers that need the fields but not a :class:`PageAddress`
        (``plane_index`` is :meth:`plane_index` of those fields)."""
        total_pages = self._total_pages
        if not 0 <= ppn < total_pages:
            raise GeometryError(f"ppn={ppn} out of range [0, {total_pages})")
        g = self.geometry
        planes_total = self._planes_total
        pidx = ppn % planes_total
        page_in_plane = ppn // planes_total
        # plane_from_index, inlined (pure integer decode, same results)
        channels = g.channels
        channel = pidx % channels
        rest = pidx // channels
        die = rest % g.dies_per_channel
        plane = rest // g.dies_per_channel
        block = page_in_plane // g.pages_per_block
        page = page_in_plane % g.pages_per_block
        return pidx, channel, die, plane, block, page

    def decode_array(self, ppns: np.ndarray) -> tuple:
        """:meth:`decode` of an integer array of ppns, as six arrays (the
        same integer arithmetic, column by column)."""
        total_pages = self._total_pages
        if ppns.size and not (0 <= ppns.min() and ppns.max() < total_pages):
            raise GeometryError(
                f"ppns out of range [0, {total_pages}): "
                f"{ppns.min()}..{ppns.max()}")
        g = self.geometry
        pidx = ppns % self._planes_total
        page_in_plane = ppns // self._planes_total
        channel = pidx % g.channels
        rest = pidx // g.channels
        return (pidx, channel, rest % g.dies_per_channel,
                rest // g.dies_per_channel,
                page_in_plane // g.pages_per_block,
                page_in_plane % g.pages_per_block)

    # --- validation ----------------------------------------------------------

    def _check_addr(self, addr: PageAddress) -> None:
        g = self.geometry
        self._check_range(addr.channel, g.channels, "channel")
        self._check_range(addr.die, g.dies_per_channel, "die")
        self._check_range(addr.plane, g.planes_per_die, "plane")
        self._check_range(addr.block, g.blocks_per_plane, "block")
        self._check_range(addr.page, g.pages_per_block, "page")

    @staticmethod
    def _check_range(value: int, bound: int, name: str) -> None:
        if not 0 <= value < bound:
            raise GeometryError(f"{name}={value} out of range [0, {bound})")
