"""The one campaign path: equivalence, replay, and failure records.

Every campaign entry point goes through :func:`run_specs`, so these tests
pin its prime directive — the executor and the replay source change *no
result bit* (serial vs pool, ledger replay after a reclaimed claim) —
plus the replay contract itself and the :class:`CellFailure` round trip.
"""

import socket

import pytest

from repro.campaign import (
    CampaignStats,
    CellFailure,
    ProgressHook,
    ResultCache,
    RunLedger,
    RunSpec,
    execute,
    replay_ledger,
    run_specs,
)
from repro.campaign.durable import LEDGER_FILENAME, encode_record
from repro.errors import ConfigError
from repro.faults import FaultPlan, FaultSpec
from repro.obs.registry import FleetAggregator

FAST = dict(n_requests=60, user_pages=2000, queue_depth=16)


def _spec(seed=3, **overrides) -> RunSpec:
    base = dict(workload="Ali124", policy="SWR", pe_cycles=1000.0, seed=seed,
                **FAST)
    base.update(overrides)
    return RunSpec(**base)


# --- equivalence: the refactor must not move a single bit ---------------------------


def _dicts(results):
    return {spec.content_hash(): outcome.to_dict()
            for spec, outcome in results.items()}


@pytest.fixture(scope="module")
def reference_results():
    specs = [_spec(seed=s) for s in (3, 4)] + [_spec(seed=3, policy="SENC")]
    return specs, run_specs(specs)


def test_run_specs_pool_with_backpressure_bit_identical(reference_results):
    specs, reference = reference_results
    pooled = run_specs(specs, jobs=2)
    assert _dicts(pooled) == _dicts(reference)


def test_durable_stale_claim_reclaimed_through_scheduler(tmp_path):
    """A dead owner's claim must not strand the cell: the ledger reclaims
    it and the campaign re-executes it, matching a clean run."""
    specs = [_spec(seed=11)]
    clean = run_specs(specs)
    with RunLedger(tmp_path, specs):
        pass  # initialise the ledger, then strand a claim from a dead pid
    import repro.campaign.durable as durable
    with open(tmp_path / LEDGER_FILENAME, "ab") as handle:
        handle.write(encode_record({
            "event": "claim", "cell": specs[0].content_hash(),
            "label": specs[0].label(), "pid": 2 ** 22 - 17,
            "host": socket.gethostname(), "lease_s": 900.0,
            "at": durable.wall_clock(),
        }))
    stats = CampaignStats()
    resumed = run_specs(specs, ledger_dir=tmp_path, progress=stats)
    assert stats.executed == 1 and stats.cached == 0
    assert _dicts(resumed) == _dicts(clean)
    # second resume replays from the ledger without re-executing
    stats2 = CampaignStats()
    replayed = run_specs(specs, ledger_dir=tmp_path, progress=stats2)
    assert stats2.executed == 0 and stats2.cached == 1
    assert _dicts(replayed) == _dicts(clean)


def test_run_specs_cache_replay_skips_execution(tmp_path):
    known = _spec(seed=1)
    fresh = _spec(seed=2)
    cache = ResultCache(tmp_path)
    cache.put(known, run_specs([known])[known])

    class Puts(ResultCache):
        def put(self, spec, result):
            puts.append(spec.seed)
            return super().put(spec, result)

    puts = []
    stats = CampaignStats()
    results = run_specs([known, fresh, known],  # duplicates collapse
                        cache=Puts(tmp_path), progress=stats)
    assert list(results) == [known, fresh]
    assert results[known] == cache.get(known)
    assert results[fresh] == execute(fresh)
    assert (stats.executed, stats.cached) == (1, 1)
    assert puts == [2]  # replayed cells are not "fresh"


@pytest.mark.parametrize("durable", [False, True], ids=["plain", "ledger"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_hook_order_store_and_journal_before_progress_then_fleet(
        tmp_path, jobs, durable):
    """What a fresh cell's hooks may rely on: its cache put (and ledger
    ``done``) land before its ``on_result``; a failure is journaled
    ``failed`` before its ``on_result`` and never cached; a replayed cell
    reports ``cached=True`` without a put; and the fleet rollup observes
    every cell after the last ``on_result``, in spec order."""
    known, fresh, fresh2 = _spec(seed=1), _spec(seed=2), _spec(seed=4)
    bad = _spec(seed=3, fault_plan=FaultPlan(faults=(
        FaultSpec(kind="worker_crash"),)))
    specs = [known, fresh, bad, fresh2]
    ResultCache(tmp_path / "cache").put(known, execute(known))
    ledger_dir = tmp_path / "ledger" if durable else None
    events = []

    def journaled(spec):
        if ledger_dir is None:
            return None
        states = replay_ledger(ledger_dir / LEDGER_FILENAME).states
        return states.get(spec.content_hash())

    class Cache(ResultCache):
        def put(self, spec, result):
            events.append(("put", spec))
            return super().put(spec, result)

    class Progress(ProgressHook):
        def on_result(self, spec, result, elapsed_s, cached):
            events.append(("result", spec, cached, journaled(spec)))

    class Fleet(FleetAggregator):
        def observe(self, spec, outcome, cached=False):
            events.append(("observe", spec, cached))
            super().observe(spec, outcome, cached)

    results = run_specs(specs, jobs=jobs, cache=Cache(tmp_path / "cache"),
                        progress=Progress(), on_failure="record",
                        max_cell_retries=0, ledger_dir=ledger_dir,
                        fleet=Fleet())
    assert isinstance(results[bad], CellFailure)
    done, failed = ("done", "failed") if durable else (None, None)
    # the replayed cell comes first, healed into the journal, never put
    assert events[0] == ("result", known, True, done)
    for spec in (fresh, fresh2):
        at = events.index(("result", spec, False, done))
        assert events[at - 1] == ("put", spec)
    assert ("result", bad, False, failed) in events
    assert ("put", bad) not in events
    kinds = [event[0] for event in events]
    assert kinds.count("result") == kinds.count("observe") == len(specs)
    assert events[-len(specs):] == [("observe", spec, spec == known)
                                    for spec in specs]


# --- CellFailure serialisation (satellite) ------------------------------------------


def test_cell_failure_dict_roundtrip():
    failure = CellFailure(spec_hash="abc123", label="Ali124/pe1000/SWR",
                         kind="timeout", message="cell exceeded 5.0s",
                         attempts=2)
    assert CellFailure.from_dict(failure.to_dict()) == failure


def test_cell_failure_from_ledger_style_record():
    # ledger `failed` records carry extra keys and omit optional ones
    failure = CellFailure.from_dict({
        "spec_hash": "abc123", "kind": "crash",
        "event": "failed", "at": 1234.5,  # ledger framing: ignored
    })
    assert failure == CellFailure(spec_hash="abc123", label="", kind="crash",
                                  message="", attempts=1)


def test_cell_failure_requires_spec_hash():
    with pytest.raises(ConfigError, match="spec_hash"):
        CellFailure.from_dict({"kind": "error"})
