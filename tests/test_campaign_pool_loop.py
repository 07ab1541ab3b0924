"""The parallel executor's pool loop on random schedules, with no process.

``_PoolRun`` reaches its pool only through ``_ProcessPool`` (submit, wait
for the first finished futures, kill, the liveness probe and the clock
its deadlines read).  Putting :class:`FakePool` in that class's place
runs the real loop — every break, the isolation of suspects, timeouts,
the restart budget, interrupts — on schedules hypothesis draws, against
a fake clock.  Each cell has one behaviour on every attempt, as a real
worker-chaos cell does, and the expected outcome follows from it alone.
"""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign import CellFailure, ParallelExecutor, RunSpec
from repro.campaign import executor as executor_module
from repro.errors import CampaignExecutionError, CampaignInterrupted

#: finish; raise in the worker; crash the pool (surfaced); die without
#: the pool noticing (only the liveness probe sees it); hang forever
BEHAVIOURS = ("finish", "raise", "crash", "silent", "hang")

#: the failure kind each failing behaviour ends in
KIND = {"raise": "error", "crash": "crash", "silent": "crash",
        "hang": "timeout"}

#: cell durations are drawn below every drawn timeout, so only a hanging
#: cell can outlive its deadline
DURATIONS = st.sampled_from([1.0, 2.0, 3.0])
TIMEOUTS = st.sampled_from([None, 4.0, 9.0])

SPECS = [RunSpec(workload="Ali124", policy="SWR", pe_cycles=1000.0, seed=i,
                 n_requests=60, user_pages=2000, queue_depth=16)
         for i in range(8)]


class CellRaised(Exception):
    """What a ``raise`` cell raises in its (fake) worker."""


class World:
    """What outlives one fake pool: the schedule, the clock, and counts of
    submits and pools."""

    def __init__(self, cells, refused):
        self.behaviour = {spec: kind for spec, (kind, _d) in cells.items()}
        self.duration = {spec: d for spec, (_k, d) in cells.items()}
        self.refused = refused
        self.now = 0.0
        self.submits = 0
        self.refusals = 0
        self.pools = 0
        self.waits = 0

    def pool(self, max_workers: int) -> "FakePool":
        self.pools += 1
        return FakePool(self, max_workers)


class FakePool:
    """An in-process stand-in for ``_ProcessPool`` on :class:`World`'s
    clock.  A crash breaks every future in flight and every later submit,
    as a real broken pool does; a silent death only turns the liveness
    probe true."""

    def __init__(self, world: World, max_workers: int):
        self.world = world
        self.max_workers = max_workers
        #: future -> (spec, time its behaviour takes effect)
        self.inflight = {}
        self.broken = False
        self.dead = False
        self.killed = False

    def submit(self, spec):
        assert not self.killed, "submit on a killed pool"
        assert sum(not f.done() for f in self.inflight) < self.max_workers
        self.world.submits += 1
        if self.broken or self.world.submits in self.world.refused:
            self.world.refusals += 1
            raise BrokenProcessPool("the fake pool refused a submit")
        future = Future()
        due = self.world.now + self.world.duration[spec]
        self.inflight[future] = (spec, due)
        return future

    def clock(self) -> float:
        return self.world.now

    def wait(self, futures, timeout: float) -> set:
        assert not self.killed, "wait on a killed pool"
        world = self.world
        world.waits += 1
        assert world.waits < 10_000, "the loop makes no progress"
        if not any(future.done() for future in futures):
            resolving = [
                (due, future) for future, (spec, due) in self.inflight.items()
                if not future.done()
                and world.behaviour[spec] in ("finish", "raise", "crash")
            ]
            due = min((due for due, _f in resolving), default=float("inf"))
            if due <= world.now + timeout:
                world.now = max(world.now, due)
                for at, future in resolving:
                    if at == due and not future.done():
                        self._resolve(future)
            else:
                world.now += timeout
            self.dead = self.dead or any(
                world.behaviour[spec] == "silent" and due <= world.now
                for spec, due in self.inflight.values())
        return {future for future in futures if future.done()}

    def _resolve(self, future) -> None:
        spec, _due = self.inflight[future]
        behaviour = self.world.behaviour[spec]
        if behaviour == "finish":
            future.set_result((("result", spec.seed), 1.0))
        elif behaviour == "raise":
            future.set_exception(CellRaised(f"cell {spec.seed} raised"))
        else:  # crash: the pool breaks under every cell in flight
            self.broken = True
            for other in self.inflight:
                if not other.done():
                    other.set_exception(BrokenProcessPool("a worker died"))

    def died_silently(self) -> bool:
        return self.dead

    def kill(self) -> None:
        self.killed = True


def _no_processes(*_args, **_kwargs):
    raise AssertionError("the fake-pool test must start no process")


@st.composite
def _schedules(draw):
    timeout = draw(TIMEOUTS)
    kinds = BEHAVIOURS if timeout is not None else BEHAVIOURS[:-1]
    n = draw(st.integers(min_value=1, max_value=len(SPECS)))
    cells = {spec: (draw(st.sampled_from(("finish",) * 3 + kinds)),
                    draw(DURATIONS))
             for spec in SPECS[:n]}
    return dict(
        cells=cells,
        jobs=draw(st.integers(min_value=1, max_value=3)),
        timeout=timeout,
        retries=draw(st.integers(min_value=0, max_value=2)),
        # a few refused submits, or a pool that keeps refusing from the
        # k-th submit on (which the restart budget must stop)
        refused=draw(st.sets(st.integers(min_value=1, max_value=40),
                             max_size=8)
                     | st.integers(min_value=1, max_value=30).map(
                         lambda k: set(range(k, k + 100)))),
    )


def _run(schedule, on_failure="record", interrupt_at=None):
    """Run the schedule through ``ParallelExecutor.map`` on fake pools:
    ``(world, reported, results or the exception raised)``."""
    world = World(schedule["cells"], schedule["refused"])
    reported, claims = [], []

    def report(spec, outcome, _elapsed):
        reported.append((spec, outcome))
        if len(reported) - 1 == interrupt_at:
            raise KeyboardInterrupt

    executor = ParallelExecutor(
        jobs=schedule["jobs"], cell_timeout_s=schedule["timeout"],
        max_cell_retries=schedule["retries"], on_failure=on_failure)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor_module, "_ProcessPool", world.pool)
        patch.setattr(executor_module, "ProcessPoolExecutor", _no_processes)
        try:
            out = executor.map(list(schedule["cells"]), report, claims.append)
        except (CampaignExecutionError, CampaignInterrupted) as exc:
            out = exc
    assert len(claims) == world.submits  # on_claim on every submit
    return world, reported, out


def _schedule(cells, jobs, timeout, retries, refused=()):
    return dict(cells=dict(zip(SPECS, cells)), jobs=jobs, timeout=timeout,
                retries=retries, refused=set(refused))


@given(_schedules(), st.none() | st.integers(min_value=0, max_value=7))
# a silent death must be a crash even when a finishing cell wakes the loop
# at the dead cell's deadline
@example(_schedule([("silent", 1.0), ("finish", 3.0), ("finish", 1.0)],
                   jobs=2, timeout=4.0, retries=0), None)
# the first submit of the first suspect after a crash is refused
@example(_schedule([("finish", 1.0), ("finish", 2.0), ("crash", 1.0),
                    ("finish", 1.0)], jobs=2, timeout=None, retries=1,
                   refused={4}), None)
@settings(max_examples=300, deadline=None)
def test_pool_loop_gives_every_cell_its_outcome(schedule, interrupt_at):
    """In record mode every spec gets exactly one outcome: finishing
    cells their result, raising cells ``error`` after 1 attempt, crashing
    and silently dying cells ``crash`` and hanging cells ``timeout``
    after ``max_cell_retries + 1``.  The pool breaks no more often than
    the schedule makes it, and the restart budget stops the run only when
    that is more often than it allows.  An interrupt carries exactly the
    outcomes reported so far; in raise mode the first failing cell raises,
    naming its spec hash."""
    cells, retries = schedule["cells"], schedule["retries"]
    world, reported, out = _run(schedule)
    budget = 2 * len(cells) * (retries + 1) + 4
    # the most breaks the schedule can cause: every refused submit, one
    # for each timed-out attempt of a hanging cell, and for a crashing or
    # dying cell one among others and one per attempt run alone
    most = world.refusals + sum(
        {"crash": retries + 2, "silent": retries + 2,
         "hang": retries + 1}.get(behaviour, 0)
        for behaviour, _duration in cells.values())
    if isinstance(out, CampaignExecutionError):
        # every pool built broke, and the last break was one too many
        assert "worker pool kept dying" in str(out)
        assert world.pools == budget + 1 <= most
    else:
        assert world.pools - 1 <= min(budget, most)
        assert [spec for spec, _o in reported] == list(out)
        assert set(out) == set(cells)
        for spec, (behaviour, _duration) in cells.items():
            outcome = out[spec]
            if behaviour == "finish":
                assert outcome == ("result", spec.seed)
                continue
            assert isinstance(outcome, CellFailure), (behaviour, outcome)
            assert outcome.kind == KIND[behaviour]
            assert outcome.spec_hash == spec.content_hash()
            assert outcome.attempts == (1 if behaviour == "raise"
                                        else retries + 1)

    # raise mode follows the same schedule up to the first failure
    failures = [o for _s, o in reported if isinstance(o, CellFailure)]
    _world, _reported, raised = _run(schedule, on_failure="raise")
    if failures:
        assert isinstance(raised, CampaignExecutionError)
        assert failures[0].spec_hash in str(raised)
        assert f" {failures[0].kind} after " in str(raised)
    elif isinstance(out, CampaignExecutionError):
        assert str(raised) == str(out)
    else:
        assert raised == out

    if interrupt_at is not None and interrupt_at < len(reported):
        _world, seen, stopped = _run(schedule, interrupt_at=interrupt_at)
        assert isinstance(stopped, CampaignInterrupted)
        assert seen == reported[:interrupt_at + 1]
        assert stopped.results == dict(seen)
