"""Page-mapped FTL: mapping, preconditioned state, GC."""

import random

import pytest

from repro.config import SSDConfig, small_test_config
from repro.errors import GeometryError, TraceError
from repro.nand.geometry import AddressMapper, PageAddress
from repro.ssd.ftl import PageMapFtl


@pytest.fixture()
def ftl(tiny_ssd_config):
    return PageMapFtl(tiny_ssd_config)


@pytest.fixture()
def mapper(tiny_ssd_config):
    """The geometry's reference ppn <-> address mapping."""
    return AddressMapper(tiny_ssd_config.geometry)


def test_user_space_excludes_overprovisioning(ftl, tiny_ssd_config):
    g = tiny_ssd_config.geometry
    assert ftl.user_pages < g.total_pages
    assert ftl.user_blocks_per_plane < g.blocks_per_plane


def test_cold_read_is_identity_mapped(ftl):
    ppn, written_at_us, _reads = ftl.read(5)
    assert written_at_us is None  # cold
    assert ppn == 5


def test_read_counts_accumulate_per_block(ftl):
    _ppn, _written, first = ftl.read(0)
    _ppn, _written, again = ftl.read(0)
    assert again == first + 1


def test_write_then_read_is_warm(ftl):
    written_ppn, _copies, _erased = ftl.write(3, now_us=100.0)
    ppn, written_at_us, _reads = ftl.read(3)
    assert written_at_us == 100.0  # warm
    assert ppn == written_ppn


def test_write_moves_page_off_identity(ftl, mapper):
    ppn, _copies, _erased = ftl.write(3, now_us=1.0)
    assert ppn != 3
    # and the new location is in the over-provisioning region
    assert mapper.address(ppn).block >= ftl.user_blocks_per_plane


def test_overwrites_allocate_fresh_pages(ftl):
    seen = set()
    for i in range(10):
        ppn, _copies, _erased = ftl.write(7, now_us=float(i))
        assert ppn not in seen
        seen.add(ppn)
    # latest mapping wins and is one of the allocated pages
    current = ftl.current_ppn(7)
    assert ftl.read(7)[0] == current
    assert current in seen


def test_out_of_range_lpn_rejected(ftl):
    with pytest.raises(TraceError):
        ftl.read(ftl.user_pages)
    with pytest.raises(TraceError):
        ftl.write(-1, 0.0)


def test_gc_triggers_and_frees_space(ftl):
    """Hammering a few hot pages far beyond the OP pool size must trigger
    GC rather than run out of space."""
    writes = ftl.user_pages * 3
    for i in range(writes):
        ftl.write(i % 4, now_us=float(i))
    assert ftl.gc_runs > 0


def test_gc_preserves_untouched_cold_data(ftl, mapper):
    """After heavy overwriting, an untouched logical page must still
    resolve somewhere, and reads return a valid physical address."""
    untouched = ftl.user_pages - 1
    for i in range(ftl.user_pages * 2):
        ftl.write(i % 4, now_us=float(i))
    ppn, _written, _reads = ftl.read(untouched)
    mapper.address(ppn)  # must not raise


def test_gc_copies_reported(ftl):
    """When GC relocates live pages the copies are surfaced to the caller
    (the simulator turns them into internal traffic)."""
    total_copies = 0
    # write a broad working set so victims contain live pages
    for i in range(ftl.user_pages * 2):
        _ppn, copies, _erased = ftl.write(i % (ftl.user_pages // 2),
                                          now_us=float(i))
        total_copies += len(copies)
    assert ftl.gc_runs > 0
    assert total_copies == ftl.pages_copied_by_gc


def test_gc_victim_erased_blocks_reported(ftl):
    erased = []
    for i in range(ftl.user_pages * 2):
        _ppn, _copies, erased_blocks = ftl.write(i % 4, now_us=float(i))
        erased.extend(erased_blocks)
    assert erased  # at least one erase happened
    for pidx, block in erased:
        assert 0 <= pidx < ftl.config.geometry.total_planes
        assert 0 <= block < ftl.config.geometry.blocks_per_plane


def test_writes_round_robin_across_planes(ftl, mapper, tiny_ssd_config):
    planes = set()
    for i in range(tiny_ssd_config.geometry.total_planes):
        ppn, _copies, _erased = ftl.write(i, now_us=0.0)
        planes.add(mapper.address(ppn).plane_key())
    assert len(planes) == tiny_ssd_config.geometry.total_planes


def test_wear_levelled_allocation_prefers_least_erased(tiny_ssd_config):
    """The allocator must pick the coolest free block, bounding the wear
    spread across the pool under sustained hot writes."""
    ftl = PageMapFtl(tiny_ssd_config)
    for i in range(ftl.user_pages * 8):
        ftl.write(i % 4, now_us=float(i))
    per_plane_counts = {}
    for (pidx, _block), count in ftl.erase_counts.items():
        per_plane_counts.setdefault(pidx, []).append(count)
    assert ftl.erase_counts, "sustained overwrites must erase blocks"
    for pidx, counts in per_plane_counts.items():
        if len(counts) >= 2:
            assert max(counts) - min(counts) <= max(counts) // 2 + 2


# --- integer addressing, pinned against the geometry's reference mapping -----------


def _scaled_config(scale, tiny_ssd_config):
    return {"tiny": tiny_ssd_config, "small": small_test_config(),
            "full": SSDConfig()}[scale]


@pytest.mark.parametrize("scale", ["tiny", "small", "full"])
def test_plane_and_block_matches_the_reference_mapping(scale, tiny_ssd_config):
    """Exhaustive on the tiny device, a seeded sample plus both ends of
    the ppn range at the ``small`` and ``full`` scales."""
    config = _scaled_config(scale, tiny_ssd_config)
    ftl = PageMapFtl(config)
    mapper = AddressMapper(config.geometry)
    total = config.geometry.total_pages
    if scale == "tiny":
        ppns = range(total)
    else:
        ppns = [0, total - 1] + random.Random(scale).sample(range(total), 4000)
    for ppn in ppns:
        a = mapper.address(ppn)
        assert ftl._plane_and_block(ppn) == (
            mapper.plane_index(a.channel, a.die, a.plane), a.block)
    for bad in (-1, total):
        with pytest.raises(GeometryError):
            ftl._plane_and_block(bad)


@pytest.mark.parametrize("scale", ["tiny", "small", "full"])
def test_allocator_ppn_matches_the_reference_mapping(scale, tiny_ssd_config):
    """Every page the allocator hands out is the reference ppn of its
    ``(pidx, block, page)``: the tiny device's whole free pool on every
    plane, the first block and a bit at the larger scales."""
    config = _scaled_config(scale, tiny_ssd_config)
    g = config.geometry
    ftl = PageMapFtl(config)
    mapper = AddressMapper(g)
    if scale == "tiny":
        pidxs = range(g.total_planes)
    else:
        pidxs = [0, g.total_planes - 1] + random.Random(scale).sample(
            range(g.total_planes), 6)
    for pidx in pidxs:
        state = ftl._planes[pidx]
        if scale == "tiny":
            allocations = len(state.free_blocks) * g.pages_per_block
        else:
            allocations = g.pages_per_block + 3
        for _ in range(allocations):
            ppn = ftl._allocate_page(pidx, 0.0, [], [])
            expected = mapper.ppn(PageAddress(*mapper.plane_from_index(pidx),
                                              state.active_block,
                                              state.next_page - 1))
            assert ppn == expected

