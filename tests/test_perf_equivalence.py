"""Bit-identity of every hot-path optimization against its reference.

Two layers:

* kernel equivalence — the vectorized LDPC/sense kernels reproduce the
  seed implementations (:mod:`repro.perf.kernels`) bit for bit on random
  inputs;
* system equivalence — a fixed-seed fig.-17-style simulation produces an
  identical :class:`SimulationResult` (``to_dict()`` equality, which
  includes every latency float) with memo caches on and off, for both
  reliability modes and across retry policies.  The simulation's own
  outputs are pinned by the golden digests of ``tests/test_golden.py``,
  which the caches-off run reproduces too.
"""

import hashlib
from contextlib import nullcontext

import numpy as np
import pytest

from repro.campaign.spec import build_simulator, build_trace, execute
from repro.config import LdpcCodeConfig
from repro.ldpc.qc_matrix import QcLdpcCode
from repro.ldpc.syndrome import (
    pruned_syndrome,
    pruned_syndrome_weight,
    rearrange_codeword,
    restore_codeword,
)
from repro.nand.vth import PageType, TlcVthModel
from repro.perf import kernels
from repro.perf.cache import MemoCache, caches_disabled, caches_enabled
from repro.rng import make_rng
from repro.ssd.ecc_model import _UNIFORM_CHUNK, EccOutcomeModel
from repro.ssd.reliability import PageReliabilitySampler

from tests.test_golden import (
    SPECS,
    canonical,
    headline,
    load,
    mismatch,
    spec_cell,
)


@pytest.fixture(scope="module")
def small_code():
    return QcLdpcCode(LdpcCodeConfig(circulant_size=37))


# --- kernel equivalence -----------------------------------------------------------


def _random_words(code, n_words=8, seed=123):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2, size=code.n, dtype=np.uint8)
            for _ in range(n_words)]


def test_pruned_syndrome_matches_reference(small_code):
    for word in _random_words(small_code):
        np.testing.assert_array_equal(
            pruned_syndrome(small_code, word),
            kernels.pruned_syndrome_reference(small_code, word),
        )
        assert pruned_syndrome_weight(small_code, word) == \
            kernels.pruned_syndrome_weight_reference(small_code, word)


def test_rearrange_restore_match_reference(small_code):
    for word in _random_words(small_code):
        re_opt = rearrange_codeword(small_code, word)
        np.testing.assert_array_equal(
            re_opt, kernels.rearrange_codeword_reference(small_code, word))
        np.testing.assert_array_equal(
            restore_codeword(small_code, re_opt),
            kernels.restore_codeword_reference(small_code, re_opt),
        )
        # round trip is the identity
        np.testing.assert_array_equal(restore_codeword(small_code, re_opt),
                                      word)


@pytest.mark.parametrize("page_type", list(PageType))
def test_sense_many_matches_reference(page_type):
    model = TlcVthModel()
    _states, vth = model.sample_cells(2048, pe_cycles=1000.0,
                                      retention_months=6.0, seed=5)
    ladder = [None] + [
        {b: -0.04 * k for b in page_type.boundaries} for k in range(1, 5)
    ]
    batched = model.sense_many(vth, page_type, ladder)
    assert batched.shape == (len(ladder), len(vth))
    for row, offsets in zip(batched, ladder):
        np.testing.assert_array_equal(
            row, kernels.sense_reference(model, vth, page_type, offsets))


# --- sampler equivalence ------------------------------------------------------------


def _query_mix(sampler):
    out = []
    for rc in range(6):
        for block in range(6):
            key = (0, 0, block % 2, block)
            for page in range(4):
                out.append(sampler.rber(key, page, 3.0 + 0.7 * block,
                                        read_count=rc))
                out.append(sampler.cold_age_days(page + 16 * block))
    return out


def test_sampler_cached_equals_uncached():
    cached = _query_mix(PageReliabilitySampler(pe_cycles=2000.0, seed=3))
    with caches_disabled():
        uncached = _query_mix(PageReliabilitySampler(pe_cycles=2000.0,
                                                     seed=3))
    assert cached == uncached  # exact float equality, not approx


def test_repeated_queries_hit_cache():
    sampler = PageReliabilitySampler(pe_cycles=1000.0, seed=1)
    _query_mix(sampler)
    before = {s["name"]: s["hits"] for s in sampler.cache_stats()}
    _query_mix(sampler)
    after = {s["name"]: s["hits"] for s in sampler.cache_stats()}
    assert after["reliability.cold_age"] > before["reliability.cold_age"]
    assert after["rber.variation_factor"] > before["rber.variation_factor"]


# --- cache machinery ---------------------------------------------------------------


def test_caches_disabled_is_scoped_and_forces_misses():
    cache = MemoCache("test.scoped")
    assert cache.get_or_compute("k", lambda: 1) == 1
    assert caches_enabled()
    with caches_disabled():
        assert not caches_enabled()
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 2) == 2
        assert calls  # stale entry was NOT returned while disabled
        assert len(cache) == 1  # and nothing new was stored
    assert caches_enabled()
    assert cache.get_or_compute("k", lambda: 3) == 1  # entry survived


def test_generational_eviction_bounds_memory():
    cache = MemoCache("test.bounded", max_entries=4)
    for i in range(11):
        cache.get_or_compute(i, lambda i=i: i)
    assert len(cache) <= 4
    assert cache.stats().evictions >= 2


def test_memocache_never_caches_while_disabled_then_reuses():
    cache = MemoCache("test.reuse")
    with caches_disabled():
        cache.get_or_compute("a", lambda: "computed")
    assert len(cache) == 0
    assert cache.get_or_compute("a", lambda: "fresh") == "fresh"


# --- end-to-end equivalence ---------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS,
                         ids=[spec_cell(s).removeprefix("spec/")
                              for s in SPECS])
def test_simulation_bit_identical_with_and_without_caches(spec):
    cached = execute(spec)
    with caches_disabled():
        reference = execute(spec)
    assert cached.to_dict() == reference.to_dict()


def test_batched_core_matches_seed_path_uncached():
    """The engine with every memo layer disabled (the pre-perf-layer
    configuration) reproduces the golden digest the seed path recorded —
    the bench gate's exact reference."""
    spec = SPECS[0]
    name = spec_cell(spec)
    golden = load()
    with caches_disabled():
        result = execute(spec)
    digest = hashlib.sha256(canonical(result.to_dict())).hexdigest()
    report = mismatch(name, golden["cells"][name], digest, headline(result),
                      golden["recorded_on"])
    assert not report, report


@pytest.mark.parametrize("disabled", [False, True], ids=["cached", "uncached"])
def test_page_reads_take_the_strength_factor_from_the_route(disabled):
    """The read path never probes the per-page memo: a route built on
    demand takes its page's strength factor once from the block table, and
    a route the run's footprint batch built takes none, so the block table
    sees exactly one lookup per route built on demand and the page memo
    none, with the golden digest on either side of ``caches_disabled()``
    (where no batch runs)."""
    spec = SPECS[0]
    name = spec_cell(spec)
    ssd = build_simulator(spec)
    with caches_disabled() if disabled else nullcontext():
        result = ssd.run_trace(build_trace(spec), **spec.run_kwargs())
    lookups = {s["name"]: s["hits"] + s["misses"] for s in ssd.cache_stats()}
    pipeline = ssd._pipeline
    assert lookups["rber.variation_factor"] == 0
    assert (pipeline.batch_routes == 0) == disabled
    assert lookups["rber.block_factor"] == \
        len(pipeline._routes) - pipeline.batch_routes > 0
    digest = hashlib.sha256(canonical(result.to_dict())).hexdigest()
    golden = load()
    report = mismatch(name, golden["cells"][name], digest, headline(result),
                      golden["recorded_on"])
    assert not report, report


def test_uniform_stream_matches_per_draw_rng():
    """The prefetch contract every decode draw relies on: values served
    from ``_UNIFORM_CHUNK``-sized chunks, across three chunks, equal one
    ``random()`` call per draw on the same seed."""
    model = EccOutcomeModel(seed=42)
    rng = make_rng(42)
    got = [model._next_uniform() for _ in range(1100)]
    assert 2 * _UNIFORM_CHUNK < len(got) <= 3 * _UNIFORM_CHUNK
    assert got == [rng.random() for _ in range(1100)]
