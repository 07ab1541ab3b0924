"""The read footprint hashed before a run: every route and cold age the
batch builds equals the per-page path's, bit for bit."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.spec import ssd_scale
from repro.errors import TraceError
from repro.nand.variation import _fold, _unit
from repro.perf.cache import caches_disabled
from repro.ssd.simulator import SSDSimulator
from repro.workloads.trace import IORequest, Trace

#: the tails of ``_unit_to_standard_normal``, where it takes its log branch
P_LOW, P_HIGH = 0.02425, 1 - 0.02425


def _read_trace(starts, page_size, pages=1):
    """One read of ``pages`` pages at each start lpn, in order."""
    return Trace([IORequest(float(i), "R", lpn * page_size, pages * page_size)
                  for i, lpn in enumerate(starts)])


def _tail_lpns(ssd, per_tail=4) -> list:
    """``per_tail`` identity pages in user space for each tail of the
    normal quantile, found with the per-page hashes: pages of blocks
    whose block-hash unit lies below ``P_LOW`` and above ``P_HIGH``, and
    pages whose page-hash unit does."""
    variation = ssd.sampler.model.variation
    g = ssd.config.geometry
    planes = g.channels * g.dies_per_channel * g.planes_per_die
    found = {(kind, low): [] for kind in ("block", "page")
             for low in (True, False)}
    for block in range(ssd.ftl.user_blocks_per_plane):
        for pidx in range(planes):
            first = block * g.pages_per_block * planes + pidx
            key = ssd.mapper.decode(first)[1:5]
            u = _unit(_fold(variation._block_state, *key))
            if u < P_LOW or u > P_HIGH:
                found["block", u < P_LOW].append(first)
            prefix = variation.page_prefix(key)
            for page in range(g.pages_per_block):
                u = _unit(_fold(prefix, page))
                if u < P_LOW or u > P_HIGH:
                    found["page", u < P_LOW].append(first + page * planes)
            if all(len(pages) >= per_tail for pages in found.values()):
                return [ppn for pages in found.values()
                        for ppn in pages[:per_tail]]
    raise AssertionError(f"too few pages in some tail: {found}")


def _same_route(got, want) -> bool:
    """Field by field, the strength factor by its bits."""
    return got[:6] == want[:6] and got[6].hex() == want[6].hex()


@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.sampled_from(["small", "full"]),
)
@settings(max_examples=40, deadline=None)
def test_batch_routes_and_cold_ages_are_the_per_page_ones(data, seed, scale):
    """Over drawn lpn sets (duplicates, lpns outside user space, pages that
    already have a route, pages in each tail of the normal quantile), the
    batch builds every missing route and cold age, equal to ``_route``'s
    and ``_cold_age_days_uncached``'s; it skips what exists and what lies
    outside user space, which still fails when a read resolves it."""
    config = ssd_scale(scale).config
    ssd = SSDSimulator(config, policy="SSDzero", pe_cycles=2000.0,
                       seed=seed)
    pipeline, sampler = ssd._pipeline, ssd.sampler
    user_pages = ssd.ftl.user_pages
    page_size = config.geometry.page_size
    in_space = st.integers(min_value=0, max_value=user_pages - 1)
    drawn = data.draw(st.lists(in_space, max_size=40))
    routed = data.draw(st.lists(in_space, max_size=4))
    outside = data.draw(st.lists(
        st.integers(min_value=user_pages - 1, max_value=user_pages + 500),
        max_size=3))
    starts = data.draw(st.permutations(
        drawn + drawn[:5] + routed + _tail_lpns(ssd)))
    existing = {ppn: pipeline._route(ppn) for ppn in routed}
    # one-page reads, then two-page reads from each lpn of ``outside``
    trace = Trace(_read_trace(starts, page_size).requests
                  + [IORequest(float(len(starts)), "R", lpn * page_size,
                               2 * page_size) for lpn in outside])

    ssd._hash_read_footprint(trace)

    footprint = set(starts)
    for lpn in outside:  # two-page reads: the in-space page is hashed
        footprint.update(p for p in (lpn, lpn + 1) if p < user_pages)
    routes = pipeline._routes
    assert set(routes) == footprint | set(existing)
    assert pipeline.batch_routes == len(footprint - set(existing))
    assert all(routes[ppn] is route for ppn, route in existing.items())
    assert set(sampler._cold_age_table) == footprint
    stats = {s["name"]: s for s in ssd.cache_stats()}
    assert stats["reliability.cold_age"]["hits"] == 0
    assert stats["reliability.cold_age"]["misses"] == 0
    block = stats["rber.block_factor"]
    assert block["hits"] + block["misses"] == len(routed)
    for lpn, age in sampler._cold_age_table.items():
        assert age.hex() == sampler._cold_age_days_uncached(lpn).hex()
    batch = {ppn: route for ppn, route in routes.items()
             if ppn not in existing}
    routes.clear()
    with caches_disabled():
        for ppn, route in batch.items():
            assert _same_route(route, pipeline._route(ppn)), ppn
    for lpn in outside:
        if lpn >= user_pages:
            with pytest.raises(TraceError):
                ssd.ftl.resolve_fast(lpn)


@pytest.mark.parametrize("scale", ["small", "full"])
@pytest.mark.parametrize("seed", [7, 11])
def test_batch_matches_the_per_page_path_over_a_sweep(scale, seed):
    """20,000 pages spread over user space, so that a float step done in
    another order shows even where it moves one value in several
    thousand (computing a cold age as ``(h * days + 0.5 * days) / 2**64``
    moves 158 of 10**6)."""
    config = ssd_scale(scale).config
    ssd = SSDSimulator(config, policy="SSDzero", pe_cycles=2000.0,
                       seed=seed)
    pipeline, sampler = ssd._pipeline, ssd.sampler
    lpns = range(0, ssd.ftl.user_pages, ssd.ftl.user_pages // 20_000)
    ssd._hash_read_footprint(_read_trace(lpns, config.geometry.page_size))
    assert pipeline.batch_routes == len(sampler._cold_age_table) == len(lpns)
    bad_ages = [lpn for lpn, age in sampler._cold_age_table.items()
                if age.hex() != sampler._cold_age_days_uncached(lpn).hex()]
    batch = dict(pipeline._routes)
    pipeline._routes.clear()
    with caches_disabled():
        bad_routes = [ppn for ppn, route in batch.items()
                      if not _same_route(route, pipeline._route(ppn))]
    assert not bad_ages and not bad_routes, (bad_ages[:5], bad_routes[:5])


@pytest.mark.parametrize("mode", ["closed", "timed"])
def test_run_trace_hashes_only_the_first_max_requests(mode):
    """``max_requests=k`` hashes the reads of the trace's first k requests
    and no other, and every cold read then finds its age."""
    config = ssd_scale("small").config
    page_size = config.geometry.page_size
    ssd = SSDSimulator(config, policy="RiFSSD", pe_cycles=2000.0, seed=3)
    trace = _read_trace(range(0, 4000, 40), page_size, pages=2)
    ssd.run_trace(trace, mode=mode, max_requests=30)
    first = {lpn for request in trace.requests[:30]
             for lpn in request.lpns(page_size)}
    assert set(ssd.sampler._cold_age_table) == first
    assert ssd._pipeline.batch_routes == len(first) == 60
    stats = {s["name"]: s for s in ssd.cache_stats()}
    assert stats["reliability.cold_age"]["misses"] == 0
    assert stats["reliability.cold_age"]["hits"] == 60
    assert stats["rber.block_factor"]["hits"] + \
        stats["rber.block_factor"]["misses"] == 0


def test_no_batch_under_caches_disabled():
    """The reference path hashes nothing ahead: every route is built on
    demand, one block lookup each, and no cold age is stored."""
    config = ssd_scale("small").config
    ssd = SSDSimulator(config, policy="RiFSSD", pe_cycles=2000.0, seed=3)
    trace = _read_trace(range(0, 4000, 40), config.geometry.page_size)
    with caches_disabled():
        ssd.run_trace(trace)
    stats = {s["name"]: s for s in ssd.cache_stats()}
    assert ssd._pipeline.batch_routes == 0
    assert len(ssd.sampler._cold_age_table) == 0
    assert stats["reliability.cold_age"]["misses"] == 100
    assert stats["rber.block_factor"]["misses"] == \
        len(ssd._pipeline._routes) == 100


def test_an_lpn_outside_user_space_fails_when_resolved():
    """The batch skips an lpn outside user space; the run raises its
    ``TraceError`` when the read resolves it, after the pages before it
    were read."""
    config = ssd_scale("small").config
    ssd = SSDSimulator(config, policy="SSDzero", seed=3)
    user_pages = ssd.ftl.user_pages
    trace = _read_trace([5, user_pages + 7], config.geometry.page_size)
    with pytest.raises(TraceError, match=str(user_pages + 7)):
        ssd.run_trace(trace, queue_depth=1)
    assert ssd._pipeline.batch_routes == 1
    assert ssd.metrics.page_reads == 1
