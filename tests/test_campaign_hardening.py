"""Crash-hardened campaign execution: worker death, hangs, failure records.

A campaign grid must survive any single cell — a worker crash, a hang, or
a deterministic error — either by raising a typed
``CampaignExecutionError`` naming the spec's content hash (``on_failure=
"raise"``, the default) or by recording a per-cell ``CellFailure`` and
completing every other cell (``on_failure="record"``, chaos mode).
"""

import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.campaign import (
    CellFailure,
    ParallelExecutor,
    ResultCache,
    RunSpec,
    SerialExecutor,
    execute,
    run_specs,
)
from repro.errors import CampaignExecutionError, ConfigError
from repro.experiments import runner
from repro.faults import FaultPlan, FaultSpec

FAST = dict(n_requests=60, user_pages=2000, queue_depth=16)

CRASH = FaultPlan(faults=(FaultSpec(kind="worker_crash"),))


def _spec(policy="SWR", **overrides) -> RunSpec:
    base = dict(workload="Ali124", policy=policy, pe_cycles=1000.0, seed=3,
                **FAST)
    base.update(overrides)
    return RunSpec(**base)


def _hang(seconds: float) -> FaultPlan:
    return FaultPlan(faults=(FaultSpec(kind="worker_hang",
                                       magnitude=seconds),))


# --- executor construction ----------------------------------------------------------


def test_executor_knob_validation():
    with pytest.raises(ConfigError):
        ParallelExecutor(jobs=0)
    for timeout in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="cell_timeout_s"):
            ParallelExecutor(jobs=2, cell_timeout_s=timeout)
    with pytest.raises(ConfigError):
        ParallelExecutor(jobs=2, max_cell_retries=-1)
    with pytest.raises(ConfigError):
        ParallelExecutor(jobs=2, on_failure="ignore")
    with pytest.raises(ConfigError):
        SerialExecutor(on_failure="ignore")


# --- worker crash -------------------------------------------------------------------


def test_crashed_cell_recorded_grid_completes():
    """The tentpole criterion: a grid with one crashing cell completes all
    remaining cells and records the failure per-cell."""
    good = [_spec(), _spec(policy="RiFSSD")]
    bad = _spec(policy="SENC", fault_plan=CRASH)
    executor = ParallelExecutor(jobs=2, max_cell_retries=1,
                                on_failure="record")
    results = executor.map(good + [bad])
    assert set(results) == set(good + [bad])
    for spec in good:
        assert results[spec] == execute(spec)
    failure = results[bad]
    assert isinstance(failure, CellFailure)
    assert failure.kind == "crash"
    assert failure.spec_hash == bad.content_hash()
    assert failure.attempts == 2  # initial try + one bounded retry
    assert failure.to_dict()["kind"] == "crash"


def test_crashed_cell_raises_by_default_naming_spec():
    bad = _spec(fault_plan=CRASH)
    executor = ParallelExecutor(jobs=2, max_cell_retries=0)
    with pytest.raises(CampaignExecutionError, match=bad.content_hash()):
        executor.map([bad])


def test_serial_executor_records_worker_chaos_without_dying():
    """In-process execution cannot contain a crash directive, so the serial
    executor deterministically records (or raises) it without executing."""
    good = _spec()
    bad = _spec(policy="RiFSSD", fault_plan=CRASH)
    results = SerialExecutor(on_failure="record").map([good, bad])
    assert results[good] == execute(good)
    assert isinstance(results[bad], CellFailure)
    assert results[bad].kind == "crash"
    with pytest.raises(CampaignExecutionError):
        SerialExecutor().map([bad])


# --- hangs --------------------------------------------------------------------------


def test_hung_cell_times_out_grid_completes():
    good = _spec()
    stuck = _spec(policy="RiFSSD", fault_plan=_hang(60.0))
    executor = ParallelExecutor(jobs=2, cell_timeout_s=1.0,
                                max_cell_retries=0, on_failure="record")
    results = executor.map([good, stuck])
    assert results[good] == execute(good)
    failure = results[stuck]
    assert isinstance(failure, CellFailure)
    assert failure.kind == "timeout"
    assert failure.spec_hash == stuck.content_hash()


# --- deterministic cell errors ------------------------------------------------------


def test_cell_error_recorded_not_retried():
    good = _spec()
    # an unknown config section passes the spec but fails build_config
    # in the worker
    bad = _spec(config_overrides={"NOSUCH": {"x": 1}})
    executor = ParallelExecutor(jobs=2, on_failure="record")
    results = executor.map([good, bad])
    assert results[good] == execute(good)
    failure = results[bad]
    assert isinstance(failure, CellFailure)
    assert failure.kind == "error"
    assert failure.attempts == 1  # errors are deterministic: never retried
    assert "NOSUCH" in failure.message  # the original error is preserved
    with pytest.raises(CampaignExecutionError, match="NOSUCH"):
        SerialExecutor().map([bad])


# --- BrokenProcessPool recovery accounting ------------------------------------------


def test_crash_retry_budget_accounting():
    """A crashing cell burns exactly its own retry budget: attempts =
    1 initial + max_cell_retries, no more, no fewer."""
    bad = _spec(policy="SENC", fault_plan=CRASH)
    for retries in (0, 2):
        executor = ParallelExecutor(jobs=2, max_cell_retries=retries,
                                    on_failure="record")
        failure = executor.map([bad])[bad]
        assert isinstance(failure, CellFailure)
        assert failure.attempts == retries + 1


def test_innocent_cells_survive_pool_break_without_burning_retries():
    """Cells swept up in another cell's pool break are resubmitted with
    their attempt refunded — even at max_cell_retries=0 every innocent
    completes with a correct result."""
    innocents = [_spec(), _spec(policy="RiFSSD"), _spec(policy="SSDzero")]
    bad = _spec(policy="SENC", fault_plan=CRASH)
    executor = ParallelExecutor(jobs=2, max_cell_retries=0,
                                on_failure="record")
    results = executor.map(innocents + [bad])
    for spec in innocents:
        assert results[spec] == execute(spec)
    assert isinstance(results[bad], CellFailure)
    assert results[bad].kind == "crash"
    assert results[bad].attempts == 1


def test_pool_break_suspects_isolated_to_culprit():
    """After a break, suspects re-run one at a time: the culprit is the
    only recorded failure, and the retries counter reflects the isolation
    re-runs, not a whole-grid penalty."""
    grid = [_spec(), _spec(policy="RiFSSD"),
            _spec(policy="SENC", fault_plan=CRASH), _spec(policy="SSDzero")]
    executor = ParallelExecutor(jobs=2, max_cell_retries=1,
                                on_failure="record")
    results = executor.map(grid)
    failures = [r for r in results.values() if isinstance(r, CellFailure)]
    assert len(failures) == 1
    assert failures[0].spec_hash == grid[2].content_hash()
    assert failures[0].attempts == 2


def test_interrupt_during_parallel_run_returns_partial_results():
    """KeyboardInterrupt surfaces as CampaignInterrupted carrying the
    partial results (completed=False), not a bare traceback — and the
    pool's workers are torn down on the way out."""
    from repro.errors import CampaignInterrupted

    specs = [_spec(), _spec(policy="RiFSSD"), _spec(policy="SENC"),
             _spec(policy="SSDzero")]
    seen = []

    def report(spec, outcome, elapsed):
        seen.append(spec)
        if len(seen) == 2:
            raise KeyboardInterrupt

    executor = ParallelExecutor(jobs=2, on_failure="record")
    with pytest.raises(CampaignInterrupted) as info:
        executor.map(specs, report)
    exc = info.value
    assert exc.completed is False
    assert len(exc.results) >= 2
    for spec, outcome in exc.results.items():
        assert outcome == execute(spec)  # partials are real results


def test_serial_interrupt_keeps_finished_cells():
    from repro.errors import CampaignInterrupted

    specs = [_spec(), _spec(policy="RiFSSD"), _spec(policy="SENC")]

    def report(spec, outcome, elapsed):
        raise KeyboardInterrupt

    with pytest.raises(CampaignInterrupted) as info:
        SerialExecutor().map(specs, report)
    assert len(info.value.results) == 1
    assert info.value.results[specs[0]] == execute(specs[0])


def test_serial_executor_drops_each_trace_after_its_last_cell(monkeypatch):
    """A trace is built once, when its first cell runs, and freed once its
    last cell has run, not kept until the grid ends; the results equal
    fresh per-cell executions."""
    import weakref

    from repro.campaign import executor as executor_module

    built = []
    real_build = executor_module.build_trace

    def build_trace(spec):
        trace = real_build(spec)
        built.append((spec.seed, weakref.ref(trace)))
        return trace

    monkeypatch.setattr(executor_module, "build_trace", build_trace)
    # trace seeds 1, 2, 1, 3: seed 1's trace serves the first and third cell
    specs = [_spec(seed=1), _spec(seed=2), _spec(policy="RiFSSD", seed=1),
             _spec(seed=3)]
    alive = []

    def report(spec, outcome, elapsed):
        alive.append([seed for seed, ref in built if ref() is not None])

    results = SerialExecutor().map(specs, report)
    assert [seed for seed, _ in built] == [1, 2, 3]
    assert alive == [[1], [1], [], []]
    for spec in specs:
        assert results[spec] == execute(spec)


def test_pool_break_at_submit_keeps_the_cells_in_flight(monkeypatch):
    """A pool that breaks between a drain and the next submit takes the
    cells still in flight with it: they run again on the new pool, none
    is dropped from the results."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.campaign import executor as executor_module

    submits = []

    class BreaksAtThirdSubmit(ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submits.append(args)
            if len(submits) == 3:
                raise BrokenProcessPool("the pool broke between drains")
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                        BreaksAtThirdSubmit)
    # the quick cell finishes first; the slow one is in flight when the
    # third submit finds the pool broken
    quick, slow = _spec(), _spec(policy="RiFSSD", fault_plan=_hang(1.0))
    last = _spec(policy="SSDzero")
    results = ParallelExecutor(jobs=2, max_cell_retries=0,
                               on_failure="record").map([quick, slow, last])
    assert results == {spec: execute(spec) for spec in (quick, slow, last)}


def test_pool_break_at_first_isolated_submit_keeps_every_cell(monkeypatch):
    """The first submit on the second pool — the first suspect's run after
    a crash — finds that pool broken too: the suspect goes back, the pool
    is rebuilt, and every cell still gets one outcome."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.campaign import executor as executor_module

    pools = []

    class SecondPoolRefusesItsFirstSubmit(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)
            self.submits = 0

        def submit(self, fn, *args, **kwargs):
            self.submits += 1
            if pools.index(self) == 1 and self.submits == 1:
                raise BrokenProcessPool("the new pool broke before its "
                                        "first cell")
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                        SecondPoolRefusesItsFirstSubmit)
    grid = [_spec(), _spec(policy="RiFSSD"),
            _spec(policy="SENC", fault_plan=CRASH), _spec(policy="SSDzero")]
    results = ParallelExecutor(jobs=2, max_cell_retries=1,
                               on_failure="record").map(grid)
    assert len(pools) >= 3 and set(results) == set(grid)
    culprit = results.pop(grid[2])
    assert isinstance(culprit, CellFailure)
    assert (culprit.kind, culprit.attempts) == ("crash", 2)
    assert results == {spec: execute(spec) for spec in results}


def test_watchdog_probe_spots_dead_worker_and_heartbeat_bounds_waits(
        monkeypatch):
    """The supervision layer's two halves, on a real worker: with no cell
    timeout a drain returns within ``HEARTBEAT_S`` while its cell hangs —
    so a wedged pool can never block the loop indefinitely — and the
    process pool's liveness probe notices a worker that died behind the
    pool's back."""
    import os as _os
    import signal as _signal
    import time as _time

    from repro.campaign import executor as executor_module
    from repro.campaign.executor import _PoolRun, _ProcessPool

    monkeypatch.setattr(executor_module, "HEARTBEAT_S", 0.2)
    slow = _spec(fault_plan=_hang(30.0))
    executor = ParallelExecutor(jobs=1, max_cell_retries=0,
                                on_failure="record")
    run = _PoolRun(executor, [slow], None)
    run.pool = _ProcessPool(1)
    try:
        run._submit(slow)
        assert run._wait_timeout() <= 0.2  # heartbeat bound, no timeout set
        began = _time.monotonic()
        run._drain()  # nothing finished, nothing died: back within a beat
        assert _time.monotonic() - began < 5.0
        assert run.running and not run.results
        assert not run.pool.died_silently()
        for proc in list(run.pool._executor._processes.values()):
            _os.kill(proc.pid, _signal.SIGKILL)
        deadline = _time.monotonic() + 5.0
        while (not run.pool.died_silently()
               and _time.monotonic() < deadline):
            _time.sleep(0.05)
        assert run.pool.died_silently()
    finally:
        run._kill()


def test_killed_pool_has_no_manager_thread_left_for_the_exit_hook():
    """``kill`` returns only once the pool's manager thread has ended.
    CPython 3.11's exit hook writes to that thread's wake-up pipe without
    a lock; a thread still closing the pipe as the process exits makes
    the hook print an ``OSError: Bad file descriptor`` traceback."""
    from repro.campaign.executor import _ProcessPool

    pool = _ProcessPool(1)
    pool.submit(_spec(fault_plan=_hang(30.0)))
    manager = pool._executor._executor_manager_thread
    assert manager.is_alive()
    pool.kill()
    assert not manager.is_alive()


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="no forkserver start method on this platform")
def test_pool_runs_under_forkserver_start_method(monkeypatch):
    """Under forkserver (the default start method on Linux from Python
    3.14) a pool worker's parent is the forkserver, not the campaign
    process: the orphan watchdog must not take that for a dead campaign
    and kill every worker as it starts."""
    from repro.campaign import executor as executor_module

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                        functools.partial(
                            ProcessPoolExecutor,
                            mp_context=multiprocessing.get_context(
                                "forkserver")))
    grid = [_spec(), _spec(policy="RiFSSD"), _spec(policy="SENC")]
    results = ParallelExecutor(jobs=2, max_cell_retries=0).map(grid)
    assert results == {spec: execute(spec) for spec in grid}


# --- run_specs orchestration --------------------------------------------------------


def test_run_specs_records_failures_and_never_caches_them(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    good = _spec()
    bad = _spec(policy="RiFSSD", fault_plan=CRASH)
    results = run_specs([good, bad], jobs=2, cache=cache,
                        max_cell_retries=0, on_failure="record")
    assert results[good] == execute(good)
    assert isinstance(results[bad], CellFailure)
    assert len(cache) == 1           # the failure must not be cached
    assert cache.get(good) == results[good]


def test_run_specs_serial_passes_hardening_knobs():
    bad = _spec(fault_plan=CRASH)
    results = run_specs([bad], jobs=1, on_failure="record")
    assert isinstance(results[bad], CellFailure)


# --- chaos experiment end-to-end ----------------------------------------------------


def test_chaos_experiment_cli_smoke(tmp_path, capsys):
    """The ISSUE's CLI criterion: the chaos experiment runs end-to-end with
    ``--jobs 2 --cache`` and reports degradation metrics."""
    rc = runner.main(["chaos", "--jobs", "2",
                      "--cache", str(tmp_path / "cache")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "chaos" in out
    assert "degraded_reads" in out
