"""Campaign layer: specs, executors, cache, serialisation."""

import json

import pytest

from repro.campaign import (
    CampaignStats,
    ResultCache,
    RunSpec,
    build_config,
    build_simulator,
    build_trace,
    dump_entry,
    execute,
    grid_specs,
    load_entry,
    run_specs,
)
from repro.config import small_test_config
from repro.errors import ConfigError
from repro.experiments.common import run_grid
from repro.fleet import FleetSpec
from repro.ssd import SimulationResult, SSDSimulator
from repro.ssd.metrics import ChannelUsage, SimMetrics
from repro.workloads import generate

#: Small-but-real sizing: each cell finishes in a few tens of milliseconds.
FAST = dict(n_requests=60, user_pages=2000, queue_depth=16)


def _fast_spec(**overrides) -> RunSpec:
    base = dict(workload="Ali124", policy="SWR", pe_cycles=1000.0, seed=3,
                **FAST)
    base.update(overrides)
    return RunSpec(**base)


# --- RunSpec identity ---------------------------------------------------------------


def test_spec_hash_pinned():
    """The content hash is part of the on-disk cache format: changing it
    silently invalidates (or worse, mis-addresses) every existing cache.
    If this test fails, bump SPEC_SCHEMA_VERSION and re-pin."""
    spec = RunSpec(workload="Ali124", policy="RiFSSD", pe_cycles=2000, seed=7)
    assert spec.content_hash() == (
        "4a227f248cb237e07231d78b1b0ee54204052a6e10c40da61b6a9f815442d378"
    )


def test_spec_hash_ignores_dict_order():
    a = RunSpec(workload="Ali124", policy="RiFSSD", pe_cycles=2000, seed=7,
                policy_kwargs={"b": 1, "a": 2},
                config_overrides={"timings": {"t_pred": 5.0},
                                  "ecc": {"buffer_pages": 4}})
    b = RunSpec(workload="Ali124", policy="RiFSSD", pe_cycles=2000, seed=7,
                policy_kwargs={"a": 2, "b": 1},
                config_overrides={"ecc": {"buffer_pages": 4},
                                  "timings": {"t_pred": 5.0}})
    assert a == b
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() == (
        "fd9e0f4e0a01e3d7421608bde1260cf2a12d2a3bc2571b5e7df26b782cb7657b"
    )


def test_spec_hash_distinguishes_fields():
    base = _fast_spec()
    assert base.content_hash() != _fast_spec(seed=4).content_hash()
    assert base.content_hash() != _fast_spec(policy="RiFSSD").content_hash()
    assert base.content_hash() != _fast_spec(pe_cycles=0.0).content_hash()


def test_spec_dict_roundtrip():
    spec = _fast_spec(policy_kwargs={"recheck_reread": True},
                      config_overrides={"ecc": {"buffer_pages": 4}},
                      operating_temp_c=55.0)
    again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert again.content_hash() == spec.content_hash()


def test_spec_rejects_unknown_fields_and_modes():
    with pytest.raises(ConfigError):
        RunSpec.from_dict({"workload": "Ali124", "policy": "SWR",
                           "bogus": 1})
    with pytest.raises(ConfigError):
        RunSpec(workload="Ali124", policy="SWR", mode="open")
    with pytest.raises(ConfigError, match="unknown policy 'Bogus'"):
        RunSpec(workload="Ali124", policy="Bogus")
    # a zero size is not "the scale's default": it would run the default
    # under a second content hash
    for field in ("n_requests", "user_pages", "queue_depth"):
        for bad in (0, -1, 2.5):
            with pytest.raises(ConfigError, match=f"RunSpec.{field}"):
                _fast_spec(**{field: bad})
            with pytest.raises(ConfigError, match=f"FleetSpec.{field}"):
                FleetSpec(n_drives=1, **{field: bad})
    for bad in (0.0, -5.0, float("nan")):
        with pytest.raises(ConfigError, match="time_limit_us"):
            _fast_spec(mode="timed", queue_depth=None, time_limit_us=bad)
    # non-finite wear or temperature would otherwise be content-hashed and
    # then fail mid-run (or not at all)
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ConfigError, match="RunSpec.pe_cycles"):
            _fast_spec(pe_cycles=bad)
    for bad in (float("nan"), float("inf"), -273.15):
        with pytest.raises(ConfigError, match="RunSpec.operating_temp_c"):
            _fast_spec(operating_temp_c=bad)
    with pytest.raises(ConfigError, match="valid workloads: Ali2, "):
        _fast_spec(workload="Ali999")
    with pytest.raises(ConfigError, match="unknown workload 'Ali999'"):
        generate("Ali999", n_requests=10, user_pages=2000)


def test_timed_mode_rejects_a_queue_depth():
    """Timed replay never reads a queue depth: a spec or run that names
    one would run the depth-free result under a second identity."""
    for depth in (4, 64):
        with pytest.raises(ConfigError, match="queue_depth must be None in "
                                              "timed mode"):
            _fast_spec(mode="timed", queue_depth=depth)
    timed = _fast_spec(mode="timed", queue_depth=None)
    assert "queue_depth" not in timed.run_kwargs()
    ssd = build_simulator(timed)
    with pytest.raises(ConfigError, match="queue_depth must be None in "
                                          "timed mode"):
        ssd.run_trace(build_trace(timed), mode="timed", queue_depth=4)
    # a closed-loop spec keeps its depth
    assert _fast_spec(queue_depth=4).run_kwargs()["queue_depth"] == 4


def test_config_overrides_applied():
    spec = _fast_spec(config_overrides={
        "ecc": {"buffer_pages": 4},
        "timings": {"t_pred": 9.0},
        "over_provisioning": 0.10,
    })
    config = build_config(spec)
    assert config.ecc.buffer_pages == 4
    assert config.timings.t_pred == 9.0
    assert config.over_provisioning == 0.10
    with pytest.raises(ConfigError):
        build_config(_fast_spec(config_overrides={"nosuch": {"a": 1}}))


# --- spec execution matches the hand-rolled construction ----------------------------


def test_execute_matches_direct_simulator():
    trace = generate("Ali124", n_requests=60, user_pages=2000, seed=3)
    ssd = SSDSimulator(small_test_config(), policy="SWR", pe_cycles=1000.0,
                       seed=3)
    expected = ssd.run_trace(trace, queue_depth=16)
    assert execute(_fast_spec()) == expected


def test_partial_run_flagged_incomplete():
    result = execute(_fast_spec(time_limit_us=2000.0))
    assert not result.completed
    full = execute(_fast_spec())
    assert full.completed


# --- JSON round-trips ---------------------------------------------------------------


def test_result_json_roundtrip_exact():
    result = execute(_fast_spec())
    assert result.metrics.read_latencies_us  # non-trivial payload
    text = json.dumps(result.to_dict())
    again = SimulationResult.from_dict(json.loads(text))
    assert again == result
    assert again.metrics.io_bandwidth_mb_s() == result.metrics.io_bandwidth_mb_s()
    assert again.channel_usage.fractions() == result.channel_usage.fractions()


def test_metrics_and_usage_roundtrip():
    metrics = SimMetrics(host_read_bytes=123, read_latencies_us=[1.5, 2.25],
                         elapsed_us=10.0)
    assert SimMetrics.from_dict(json.loads(json.dumps(metrics.to_dict()))) \
        == metrics
    usage = ChannelUsage(cor=1.0, uncor=0.5, write=0.25, gc=0.0,
                         eccwait=0.125, idle=3.0)
    assert ChannelUsage.from_dict(json.loads(json.dumps(usage.to_dict()))) \
        == usage


def test_entry_envelope_validates_spec():
    spec = _fast_spec()
    result = execute(spec)
    text = dump_entry(spec, result)
    assert load_entry(text, expected_spec=spec) == result
    with pytest.raises(ConfigError):
        load_entry(text, expected_spec=_fast_spec(seed=99))


# --- executors ----------------------------------------------------------------------


def test_serial_equals_parallel():
    specs = grid_specs(["Ali121", "Ali124"], ["SWR", "RiFSSD"],
                       [0.0, 2000.0], seed=5, **FAST)
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=4)
    assert serial == parallel
    assert set(serial) == set(specs)


def test_run_specs_deduplicates_and_reports():
    spec = _fast_spec()
    stats = CampaignStats()
    results = run_specs([spec, spec], jobs=1, progress=stats)
    assert list(results) == [spec]
    assert stats.total == 1 and stats.executed == 1 and stats.cached == 0
    assert stats.wall_clock_s is not None


def test_run_grid_wrapper_keys_and_values():
    grid = run_grid(["Ali124"], ["SWR", "RiFSSD"], [1000.0], scale="small",
                    seed=3)
    assert set(grid) == {("Ali124", 1000.0, "SWR"), ("Ali124", 1000.0, "RiFSSD")}
    # run_grid is a thin wrapper: the campaign layer reproduces it exactly
    spec = RunSpec(workload="Ali124", policy="SWR", pe_cycles=1000.0, seed=3,
                   scale="small")
    assert grid[("Ali124", 1000.0, "SWR")] == execute(spec)


# --- cache --------------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    specs = grid_specs(["Ali124"], ["SWR", "RiFSSD"], [1000.0], seed=5, **FAST)
    first = CampaignStats()
    r1 = run_specs(specs, cache=tmp_path / "cache", progress=first)
    assert (first.executed, first.cached) == (2, 0)
    second = CampaignStats()
    r2 = run_specs(specs, cache=tmp_path / "cache", progress=second)
    assert (second.executed, second.cached) == (0, 2)  # zero re-simulations
    assert r1 == r2


def test_cache_corrupt_entry_recomputes(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _fast_spec()
    result = execute(spec)
    cache.put(spec, result)
    assert cache.get(spec) == result
    record = cache.path.read_bytes()
    cache.path.write_bytes(b"{not json" + record[9:])  # overwritten in place
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert cache.get(spec) is None
    stats = CampaignStats()
    again = run_specs([spec], cache=cache, progress=stats)
    assert stats.executed == 1
    assert again[spec] == result
    # the recomputed record follows the damaged line, which the next open
    # moves aside
    with pytest.warns(RuntimeWarning, match="quarantined"):
        reopened = ResultCache(tmp_path)
    assert reopened.get(spec) == result
    assert reopened.path.read_bytes() == dump_entry(spec, result)


def test_cache_wipe(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _fast_spec()
    cache.put(spec, execute(spec))
    cache.put(spec, execute(spec))  # a second record of the same cell
    other = ResultCache(tmp_path)
    assert len(cache) == len(other) == 1 and spec in cache and spec in other
    assert cache.wipe() == 1
    # the log itself is emptied: the other instance sees no record either
    assert cache.path.read_bytes() == b""
    assert len(cache) == len(other) == 0
    assert spec not in cache and spec not in other
