"""Property-based tests on the SSD layer: plans, FTL, traces."""

from hypothesis import given, settings, strategies as st

from repro.config import NandTimings, SSDConfig
from repro.ssd.ecc_model import EccOutcomeModel
from repro.ssd.ftl import PageMapFtl
from repro.ssd.retry_policies import K_SENSE, K_TRANSFER, PolicyName, make_policy
from repro.units import KIB
from repro.workloads.trace import IORequest

from tests.plans import channel_time, compile_plan, plane_time

_TIMINGS = NandTimings()


@given(
    st.sampled_from([p.value for p in PolicyName]),
    st.floats(min_value=0.0, max_value=0.05),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=120, deadline=None)
def test_any_plan_is_well_formed(policy_name, rber, seed):
    """Whatever the policy and outcome draws, a read plan must be a valid
    alternation ending in a transfer, with consistent counters."""
    model = EccOutcomeModel(seed=seed)
    policy = make_policy(policy_name, _TIMINGS, model)
    plan = compile_plan(policy, rber)
    assert plan.phases, "every read plan has at least one phase"
    assert plan.phases[0].kind == K_SENSE
    assert plan.phases[-1].kind == K_TRANSFER
    # the last transfer is always a correctable page going to the host
    assert plan.phases[-1].tag == "COR"
    # phase alternation: SENSE and TRANSFER strictly interleave
    for a, b in zip(plan.phases, plan.phases[1:]):
        assert a.kind != b.kind
    assert plan.senses >= 1
    assert plan.uncorrectable_transfers <= sum(
        1 for p in plan.phases if p.kind == K_TRANSFER
    )
    assert plane_time(plan) > 0
    assert channel_time(plan) > 0
    if not plan.retried:
        assert len(plan.phases) == 2


@given(
    st.floats(min_value=0.0, max_value=0.05),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60, deadline=None)
def test_rif_plans_never_ship_predicted_failures(rber, seed):
    model = EccOutcomeModel(seed=seed)
    policy = make_policy("RiFSSD", _TIMINGS, model)
    plan = compile_plan(policy, rber)
    if plan.in_die_retry and plan.uncorrectable_transfers:
        # only the rare residual decode failure of the re-read may ship a
        # bad page, and then a reactive round must follow
        assert len(plan.phases) > 2


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60),
       st.integers(min_value=0, max_value=100))
@settings(max_examples=25, deadline=None)
def test_ftl_mapping_is_always_a_bijection(lpns, salt):
    """After any write sequence, distinct logical pages resolve to distinct
    physical pages."""
    config = SSDConfig().scaled(
        channels=1, dies_per_channel=1, planes_per_die=2,
        blocks_per_plane=8, pages_per_block=8,
    )
    ftl = PageMapFtl(config)
    for i, lpn in enumerate(lpns):
        ftl.write(lpn % ftl.user_pages, now_us=float(i + salt))
    seen = {}
    for lpn in range(min(ftl.user_pages, 64)):
        ppn = ftl.current_ppn(lpn)
        assert ppn not in seen, f"lpn {lpn} and {seen[ppn]} share ppn {ppn}"
        seen[ppn] = lpn


_TINY_FTL = SSDConfig().scaled(
    channels=1, dies_per_channel=1, planes_per_die=2,
    blocks_per_plane=8, pages_per_block=8,
)

#: one FTL call: ("write" | "read", lpn seed) or ("relocate", pidx, block)
_FTL_OPS = st.one_of(
    st.tuples(st.sampled_from(["write", "read"]), st.integers(0, 10**6)),
    st.tuples(st.just("relocate"),
              st.integers(0, _TINY_FTL.geometry.total_planes - 1),
              st.integers(0, _TINY_FTL.geometry.blocks_per_plane - 1)),
)


@given(st.lists(_FTL_OPS, min_size=1, max_size=150))
@settings(max_examples=80, deadline=None)
def test_ftl_invariants_under_random_interleavings(ops):
    """Whatever the interleaving of writes, reads and block relocations,
    the mapping stays a bijection, ``_map``/``_reverse`` stay inverse, and
    every reported copy and erase matches the mapping's change."""
    ftl = PageMapFtl(_TINY_FTL)
    lpns = range(ftl.user_pages)
    reported_copies = 0
    for step, op in enumerate(ops):
        before = {lpn: ftl.current_ppn(lpn) for lpn in lpns}
        written = new_ppn = None
        copies, erased = [], []
        if op[0] == "write":
            written = op[1] % ftl.user_pages
            new_ppn, copies, erased = ftl.write(written, now_us=float(step))
        elif op[0] == "read":
            lpn = op[1] % ftl.user_pages
            ppn, _written_at, reads = ftl.read(lpn)
            assert ppn == before[lpn]
            assert reads == ftl.block_read_count(*ftl._plane_and_block(ppn))
        else:
            relocation = ftl.relocate_block(op[1], op[2], now_us=float(step))
            if relocation is not None:
                copies, erased = relocation
        after = {lpn: ftl.current_ppn(lpn) for lpn in lpns}
        # no two lpns share a ppn
        assert len(set(after.values())) == len(after)
        # _map and _reverse are inverse
        assert {ppn: lpn for lpn, ppn in ftl._map.items()} == ftl._reverse
        # each copy moved one lpn's page from where it was to where it is
        # (a write's own lpn is then superseded by the written page)
        owner = {ppn: lpn for lpn, ppn in before.items()}
        for src_ppn, dst_ppn in copies:
            lpn = owner[src_ppn]
            if lpn != written:
                assert after[lpn] == dst_ppn
        if written is not None:
            assert after[written] == new_ppn
        # no live page stays in an erased block (only a write may land in
        # one, after its erase)
        erased_set = set(erased)
        for lpn, ppn in after.items():
            if ftl._plane_and_block(ppn) in erased_set:
                assert lpn == written and ppn == new_ppn
        reported_copies += len(copies)
    assert ftl.pages_copied_by_gc == reported_copies


@given(
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=1, max_value=512 * KIB),
)
@settings(max_examples=60, deadline=None)
def test_request_page_math(offset, size):
    req = IORequest(0.0, "R", offset, size)
    pages = req.lpns()
    assert pages[0] * 16 * KIB <= offset
    assert (pages[-1] + 1) * 16 * KIB >= offset + size
    assert len(pages) <= size // (16 * KIB) + 2
