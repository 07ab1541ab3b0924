"""Read-disturb management: relocation of heavily-read blocks."""

import pytest

from repro.errors import GeometryError, SimulationError
from repro.nand.geometry import AddressMapper
from repro.ssd.ftl import PageMapFtl
from repro.ssd.simulator import SSDSimulator
from repro.units import KIB
from repro.workloads.trace import IORequest, Trace


def _hot_read_trace(n_requests, pages=4):
    """Hammer a handful of pages with reads."""
    return Trace([
        IORequest(float(i), "R", (i % pages) * 16 * KIB, 16 * KIB)
        for i in range(n_requests)
    ], name="hot-read")


# --- FTL-level mechanics ----------------------------------------------------------


def test_ftl_block_read_count_resets_on_relocation(tiny_ssd_config):
    ftl = PageMapFtl(tiny_ssd_config)
    for _ in range(10):
        ftl.read(0)
    pidx, block = ftl._plane_and_block(ftl.current_ppn(0))
    assert ftl.block_read_count(pidx, block) == 10
    result = ftl.relocate_block(pidx, block, now_us=1.0)
    assert result is not None
    assert ftl.block_read_count(pidx, block) == 0
    assert ftl.disturb_relocations == 1
    # the page remains readable, now from a different block
    mapper = AddressMapper(tiny_ssd_config.geometry)
    ppn, _written, _reads = ftl.read(0)
    assert (mapper.address(ppn).block != block
            or mapper.address(ppn).plane_key() != mapper.address(0).plane_key())


def test_ftl_relocation_preserves_all_data(tiny_ssd_config):
    ftl = PageMapFtl(tiny_ssd_config)
    # touch every lpn of block 0 in plane 0, then relocate the block
    victims = [lpn for lpn in range(ftl.user_pages)
               if ftl._plane_and_block(lpn) == (0, 0)]
    for lpn in victims:
        ftl.read(lpn)
    result = ftl.relocate_block(0, 0, now_us=5.0)
    assert result is not None
    copies, _erased = result
    assert len(copies) == len(victims)
    for lpn in victims:
        # resolvable and no longer in the erased block
        assert ftl._plane_and_block(ftl.current_ppn(lpn)) != (0, 0)


def test_ftl_relocation_refuses_free_blocks(tiny_ssd_config):
    ftl = PageMapFtl(tiny_ssd_config)
    ftl.write(0, now_us=0.0)
    state = ftl._planes[0]
    assert ftl.relocate_block(0, state.free_blocks[0], now_us=1.0) is None


def test_ftl_relocation_rejects_out_of_range_blocks(tiny_ssd_config):
    ftl = PageMapFtl(tiny_ssd_config)
    g = tiny_ssd_config.geometry
    for pidx, block in ((0, g.blocks_per_plane), (0, -1),
                        (g.total_planes, 0), (-1, 0)):
        with pytest.raises(GeometryError):
            ftl.relocate_block(pidx, block, now_us=0.0)
    assert ftl.disturb_relocations == 0


def test_ftl_relocation_of_active_block_retires_it(tiny_ssd_config):
    """An overheated write frontier is closed and relocated; the written
    page survives."""
    ftl = PageMapFtl(tiny_ssd_config)
    written_ppn, _copies, _erased = ftl.write(0, now_us=0.0)
    active = ftl._planes[0].active_block
    relocation = ftl.relocate_block(0, active, now_us=1.0)
    assert relocation is not None
    copies, _erased = relocation
    assert len(copies) == 1  # the one written page moved
    ppn, written_at_us, _reads = ftl.read(0)
    assert written_at_us is not None  # still warm
    assert ppn != written_ppn


def test_ftl_erase_counts_accumulate(tiny_ssd_config):
    ftl = PageMapFtl(tiny_ssd_config)
    ftl.relocate_block(0, 0, now_us=0.0)
    assert ftl.erase_counts[(0, 0)] == 1


# --- simulator integration ----------------------------------------------------------


def test_disturb_management_triggers_in_simulator(ssd_config):
    ssd = SSDSimulator(ssd_config, policy="SSDzero", seed=2,
                       read_disturb_threshold=50)
    ssd.run_trace(_hot_read_trace(600), queue_depth=8)
    assert ssd.metrics.disturb_relocations > 0
    assert ssd.ftl.disturb_relocations == ssd.metrics.disturb_relocations
    # relocation traffic shows up on the channels
    assert ssd.channel_usage().gc > 0


def test_disturb_management_off_by_default(ssd_config):
    ssd = SSDSimulator(ssd_config, policy="SSDzero", seed=2)
    ssd.run_trace(_hot_read_trace(600), queue_depth=8)
    assert ssd.metrics.disturb_relocations == 0


def test_disturb_management_costs_some_bandwidth(ssd_config):
    def bw(threshold):
        ssd = SSDSimulator(ssd_config, policy="SSDzero", seed=2,
                           read_disturb_threshold=threshold)
        return ssd.run_trace(_hot_read_trace(600), queue_depth=8).io_bandwidth_mb_s

    # aggressive relocation costs bandwidth vs none
    assert bw(20) < bw(10**9) * 1.001


def test_threshold_validation(ssd_config):
    with pytest.raises(SimulationError):
        SSDSimulator(ssd_config, read_disturb_threshold=0)


def test_relocation_caps_read_counts(ssd_config):
    """With management on, no block's counter runs far beyond threshold."""
    threshold = 40
    ssd = SSDSimulator(ssd_config, policy="SSDzero", seed=3,
                       read_disturb_threshold=threshold)
    ssd.run_trace(_hot_read_trace(500, pages=2), queue_depth=4)
    worst = max(ssd.ftl._block_reads.values(), default=0)
    # some slack for requests in flight between check and relocation
    assert worst <= threshold + 16
