"""Campaign executors and :func:`run_specs`, the one campaign body.

Every cell of a campaign is an independent, fully-seeded simulation
(:func:`repro.campaign.spec.execute`), so the grid is embarrassingly
parallel: :class:`ParallelExecutor` farms specs out to worker processes
that rebuild trace and simulator from the spec alone, which makes its
results bit-identical to :class:`SerialExecutor`'s — the scheduling order
can never leak into a result because nothing is shared between cells.

The parallel executor is one loop over a process pool, reached through
five calls: submit, wait, kill, a liveness probe and the clock.  Every
break of the pool goes through one handler, which kills it, counts the
restart against a budget, builds a new pool and puts the cells the old
one took down back in a queue.  A cell fails in one of three ways:

* **crash** — a worker process exits (a submit or a result raises
  ``BrokenProcessPool``, or the watchdog finds a dead worker): the cells
  in flight are refunded their attempt and become suspects, which the
  same loop runs one at a time under the same watchdog and timeout, so
  the culprit breaks the pool alone, pays, and fails past
  ``max_cell_retries``;
* **timeout** — a cell outlives ``cell_timeout_s``: it pays its attempt
  and is retried (bounded), and the innocent cells in flight go back to
  the front of the queue without penalty;
* **error** — a cell raises: deterministic, so never retried.

``on_failure`` decides what a failed cell becomes, in both executors:
``"raise"`` (the default) raises
:class:`~repro.errors.CampaignExecutionError` naming its label, spec hash
and kind; ``"record"`` stores a :class:`CellFailure` under the spec so the
rest of the grid completes — the mode chaos campaigns run in.

:func:`run_specs` is the entry point every campaign goes through: it
dedupes the specs, replays what the cache (or, with ``ledger_dir``, the
write-ahead ledger of :mod:`repro.campaign.durable`) already knows, hands
the rest to one executor ``map`` call, and folds every outcome into the
fleet rollup in spec order (failures are never cached).
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import (
    CampaignExecutionError,
    CampaignInterrupted,
    ConfigError,
    LedgerError,
)
from ..ssd import SimulationResult
from .cache import ResultCache, make_dir
from .durable import (
    CLAIMED,
    DONE,
    FAILED,
    LEDGER_CACHE_DIR,
    CampaignFaultDriver,
    RunLedger,
    check_lease,
    deliver_termination_as_interrupt,
)
from .progress import ProgressHook
from .spec import RunSpec, build_trace, execute

#: ``report(spec, outcome, elapsed_s)`` — invoked once per finished cell
#: (the outcome is a :class:`SimulationResult` or a :class:`CellFailure`).
ReportFn = Callable[[RunSpec, "CellOutcome", float], None]

#: ``on_claim(spec)`` — invoked just before a cell starts executing (in
#: this process for the serial executor, at pool submission for the
#: parallel one).  The durable runtime uses it to journal ``claim``
#: records; resubmissions after a pool restart claim again (idempotent).
ClaimFn = Callable[[RunSpec], None]

#: Failure dispositions for a cell that crashed, hung, or errored.
ON_FAILURE = ("raise", "record")

#: Watchdog period of the process pool: even with no cell timeout the
#: main loop wakes at least this often and restarts a pool whose workers
#: died without delivering ``BrokenProcessPool`` (a silently-wedged pool).
HEARTBEAT_S = 5.0


@dataclass(frozen=True)
class CellFailure:
    """Per-cell failure record: what went wrong, identified by spec hash."""

    spec_hash: str
    label: str
    kind: str        # "crash" | "timeout" | "error"
    message: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "spec_hash": self.spec_hash,
            "label": self.label,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellFailure":
        """Rebuild a failure from :meth:`to_dict` output (or a superset of
        it, e.g. a ledger ``failed`` record or a telemetry event — unknown
        keys are ignored, optional fields default)."""
        if "spec_hash" not in data:
            raise ConfigError(
                "CellFailure.from_dict requires a 'spec_hash' field; got "
                f"keys {sorted(data)}"
            )
        return cls(
            spec_hash=data["spec_hash"],
            label=data.get("label", ""),
            kind=data.get("kind", "error"),
            message=data.get("message", ""),
            attempts=int(data.get("attempts", 1)),
        )


CellOutcome = Union[SimulationResult, CellFailure]


def _run_worker_chaos(spec: RunSpec) -> None:
    """Execute campaign-level chaos directives (worker_crash/worker_hang)
    attached to the spec's fault plan.  Only ever called in a pool worker,
    where a crash is contained by process isolation."""
    plan = spec.fault_plan
    if plan is None:
        return
    for fault in plan.worker_faults():
        if fault.kind == "worker_crash":
            os._exit(3)
        time.sleep(fault.magnitude)  # worker_hang


def _exit_when_orphaned() -> None:
    # the parent sentinel is a pipe the campaign process holds open; it
    # reads EOF once that process is gone, under fork, spawn and forkserver
    # alike (os.getppid() cannot tell: under forkserver it names the
    # forkserver, which lives as long as its workers do)
    multiprocessing.parent_process().join()
    os._exit(1)


def _init_worker() -> None:
    """Pool-worker initializer.  Forked workers inherit the parent's signal
    handlers, including the durable runtime's SIGTERM-to-KeyboardInterrupt
    conversion; a worker the pool terminates must just die, not print a
    traceback.  A worker whose campaign process is gone (SIGKILL, OOM
    kill) exits too, instead of holding the caller's pipes and the
    ledger's file handle open forever."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threading.Thread(target=_exit_when_orphaned, daemon=True).start()


def _execute_cell(spec: RunSpec) -> Tuple[SimulationResult, float]:
    """Worker entry point: rebuild everything from the spec and run it."""
    started = time.perf_counter()
    _run_worker_chaos(spec)
    result = execute(spec)
    return result, time.perf_counter() - started


def _reason(exc: BaseException) -> str:
    """`` (why)`` suffix for interrupt messages — e.g. the signal name a
    :func:`~repro.campaign.durable.deliver_termination_as_interrupt`
    handler attached; empty for a plain Ctrl-C."""
    text = str(exc)
    return f" ({text})" if text and not isinstance(
        exc, CampaignInterrupted) else ""


def _interrupted(exc: BaseException, results: Dict[RunSpec, "CellOutcome"],
                 total: int) -> CampaignInterrupted:
    """The :class:`~repro.errors.CampaignInterrupted` an executor raises
    for a Ctrl-C, carrying the cells finished so far."""
    return CampaignInterrupted(
        f"campaign interrupted{_reason(exc)} with "
        f"{len(results)} of {total} cells finished",
        results=dict(results),
    )


def _check_on_failure(on_failure: str) -> str:
    if on_failure not in ON_FAILURE:
        raise ConfigError(
            f"on_failure must be one of {ON_FAILURE}, got {on_failure!r}"
        )
    return on_failure


def _failure(on_failure: str, spec: RunSpec, kind: str, message: str,
             attempts: int = 1,
             cause: Optional[BaseException] = None) -> CellFailure:
    """The one failure disposition of both executors: the cell's
    :class:`CellFailure` in ``"record"`` mode; in ``"raise"`` mode a
    :class:`~repro.errors.CampaignExecutionError` naming its label, spec
    hash and kind, chained to the exception the cell raised (``cause``)."""
    failure = CellFailure(spec_hash=spec.content_hash(), label=spec.label(),
                          kind=kind, message=message, attempts=attempts)
    if on_failure == "raise":
        raise CampaignExecutionError(
            f"cell {failure.label} (spec {failure.spec_hash}) {kind} after "
            f"{attempts} attempt(s): {message}"
        ) from cause
    return failure


class SerialExecutor:
    """Run specs one after another in this process.

    Traces are generated once per distinct :meth:`RunSpec.trace_key` and
    shared across the cells that replay them — an optimisation only, since
    regeneration is deterministic.  Worker-chaos directives cannot be
    isolated in-process, so those cells become deterministic failure
    records (or raise) without executing.
    """

    jobs = 1

    def __init__(self, on_failure: str = "raise"):
        self.on_failure = _check_on_failure(on_failure)

    def map(self, specs: Sequence[RunSpec],
            report: Optional[ReportFn] = None,
            on_claim: Optional[ClaimFn] = None) -> Dict[RunSpec, CellOutcome]:
        traces = {}
        results: Dict[RunSpec, CellOutcome] = {}
        try:
            for spec in specs:
                results[spec], elapsed = self._run(spec, traces, on_claim)
                if report is not None:
                    report(spec, results[spec], elapsed)
        except KeyboardInterrupt as exc:
            # a signal landing in a cell or in the report callback must
            # not discard the finished cells
            raise _interrupted(exc, results, len(specs)) from None
        return results

    def _run(self, spec: RunSpec, traces: dict,
             on_claim: Optional[ClaimFn]) -> Tuple[CellOutcome, float]:
        plan = spec.fault_plan
        chaos = () if plan is None else plan.worker_faults()
        if chaos:
            kinds = sorted({fault.kind for fault in chaos})
            return _failure(self.on_failure, spec, "crash",
                            f"worker chaos directive {kinds} needs process "
                            "isolation (jobs > 1)"), 0.0
        key = spec.trace_key()
        if key not in traces:
            traces[key] = build_trace(spec)
        if on_claim is not None:
            on_claim(spec)
        started = time.perf_counter()
        try:
            result = execute(spec, trace=traces[key])
        except Exception as exc:
            return _failure(self.on_failure, spec, "error",
                            f"{type(exc).__name__}: {exc}", cause=exc), 0.0
        return result, time.perf_counter() - started


class ParallelExecutor:
    """Fan specs out over a pool of worker processes, surviving the pool.

    Workers receive only the (picklable) spec and rebuild trace + simulator
    locally, so results are bit-identical to a serial run regardless of
    completion order, worker count, or which worker ran which cell.

    ``cell_timeout_s`` bounds each cell's wall clock (positive and finite,
    or ``None`` = no bound); ``max_cell_retries`` bounds how often a
    crashed or timed-out cell is re-run before it is declared failed;
    ``on_failure`` picks between raising a typed
    :class:`~repro.errors.CampaignExecutionError` and recording a
    :class:`CellFailure` in the result mapping.

    One loop runs the grid.  A refused submit, a crash, the watchdog (it
    probes for a dead worker at every wake-up, at least every
    :data:`HEARTBEAT_S` seconds) and a timeout kill all go through one
    handler, which rebuilds the pool at most ``2·n·(max_cell_retries+1)+4``
    times for ``n`` cells.  After a crash the loop runs the suspects one at
    a time, under the same watchdog and timeout, until each has an outcome.

    A SIGINT (KeyboardInterrupt) terminates every worker — the pool is
    killed both on the exit path and by an ``atexit`` guard, so no orphan
    processes survive — and surfaces as
    :class:`~repro.errors.CampaignInterrupted` carrying the partial
    results with ``completed=False`` instead of a bare traceback.
    """

    def __init__(self, jobs: Optional[int] = None, cell_timeout_s: Optional[float] = None,
                 max_cell_retries: int = 1, on_failure: str = "raise"):
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if cell_timeout_s is not None and not 0 < cell_timeout_s < math.inf:
            raise ConfigError("cell_timeout_s must be positive and finite "
                              f"(or None), got {cell_timeout_s}")
        if max_cell_retries < 0:
            raise ConfigError("max_cell_retries must be >= 0")
        self.jobs = jobs
        self.cell_timeout_s = cell_timeout_s
        self.max_cell_retries = max_cell_retries
        self.on_failure = _check_on_failure(on_failure)

    def map(self, specs: Sequence[RunSpec],
            report: Optional[ReportFn] = None,
            on_claim: Optional[ClaimFn] = None) -> Dict[RunSpec, CellOutcome]:
        if not specs:
            return {}
        return _PoolRun(self, list(specs), report, on_claim).run()


class _ProcessPool:
    """The only code that touches :class:`ProcessPoolExecutor`: the five
    calls :class:`_PoolRun` makes of its pool.  Tests put an in-process
    fake in its place."""

    def __init__(self, max_workers: int):
        self._executor = ProcessPoolExecutor(max_workers=max_workers,
                                             initializer=_init_worker)

    def submit(self, spec: RunSpec):
        """Start a cell; raises ``BrokenProcessPool`` on a broken pool."""
        return self._executor.submit(_execute_cell, spec)

    @staticmethod
    def wait(futures, timeout: float) -> set:
        """The futures done once the first of ``futures`` finishes; none
        if ``timeout`` seconds pass first."""
        return wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)[0]

    @staticmethod
    def clock() -> float:
        return time.monotonic()

    def _workers(self) -> list:
        # the executor drops its process table on shutdown
        processes = getattr(self._executor, "_processes", None) or {}
        return list(processes.values())

    def died_silently(self) -> bool:
        """Liveness probe: a worker process is dead, whether or not the
        pool has surfaced the break."""
        return any(not proc.is_alive() for proc in self._workers())

    def kill(self) -> None:
        """Terminate the workers (they may be hung) and drop the pool."""
        for proc in self._workers():
            try:
                proc.terminate()
            except Exception:
                pass
        self._executor.shutdown(wait=False, cancel_futures=True)


class _PoolRun:
    """One hardened parallel campaign execution (internal): one loop over
    a :class:`_ProcessPool`, and :meth:`_break` for every break of it."""

    def __init__(self, executor: ParallelExecutor, specs: List[RunSpec],
                 report: Optional[ReportFn],
                 on_claim: Optional[ClaimFn] = None):
        self.executor = executor
        self.specs = specs
        self.report = report
        self.on_claim = on_claim
        self.max_workers = min(executor.jobs, len(specs))
        self.results: Dict[RunSpec, CellOutcome] = {}
        self.queue = deque(specs)
        #: pool-break suspects, run one at a time in this order; the one
        #: in flight stays first until it has an outcome
        self.suspects: deque = deque()
        self.attempts: Dict[RunSpec, int] = {spec: 0 for spec in specs}
        self.pool: Optional[_ProcessPool] = None
        #: future -> (spec, deadline); every submitted future is running
        #: (we never queue more than ``max_workers`` at once), so its
        #: timeout window starts at submission (no timeout: no deadline)
        self.running: Dict[object, Tuple[RunSpec, float]] = {}
        self.restarts = 0
        self.max_restarts = 2 * len(specs) * (executor.max_cell_retries + 1) + 4

    def run(self) -> Dict[RunSpec, CellOutcome]:
        self.pool = _ProcessPool(self.max_workers)
        # belt and braces: if the interpreter exits while the pool is
        # live (unhandled signal, sys.exit from a hook), the guard still
        # terminates the workers — no orphan processes
        atexit.register(self._kill)
        try:
            while self.queue or self.suspects or self.running:
                spec = self._next_cell()
                if spec is not None:
                    self._submit(spec)
                elif self.running:
                    self._drain()
            return self.results
        except KeyboardInterrupt as exc:
            raise _interrupted(exc, self.results, len(self.specs)) from None
        finally:
            self._kill()
            atexit.unregister(self._kill)

    def _kill(self) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.kill()

    def _record(self, spec: RunSpec, outcome: CellOutcome,
                elapsed: float = 0.0) -> None:
        self.results[spec] = outcome
        if self.suspects and self.suspects[0] == spec:
            self.suspects.popleft()
        if self.report is not None:
            self.report(spec, outcome, elapsed)

    def _fail(self, spec: RunSpec, kind: str, message: str,
              cause: Optional[BaseException] = None) -> None:
        self._record(spec, _failure(self.executor.on_failure, spec, kind,
                                    message, self.attempts[spec], cause))

    def _next_cell(self) -> Optional[RunSpec]:
        """The cell to submit now, or ``None`` while the pool is full.
        While suspects remain the pool holds one cell, suspects first; a
        suspect past its retry budget fails before it is submitted."""
        while self.suspects:
            if self.running:
                return None
            spec = self.suspects[0]
            if self.attempts[spec] <= self.executor.max_cell_retries:
                return spec
            self._fail(spec, "crash", "worker process died while executing "
                       f"this cell ({self.attempts[spec]} attempt(s))")
        if self.queue and len(self.running) < self.max_workers:
            return self.queue.popleft()
        return None

    def _submit(self, spec: RunSpec) -> None:
        self.attempts[spec] += 1
        if self.on_claim is not None:
            self.on_claim(spec)
        try:
            future = self.pool.submit(spec)
        except BrokenProcessPool:
            self._break(refused=spec)
            return
        limit = self.executor.cell_timeout_s
        self.running[future] = (spec, self.pool.clock() + (
            math.inf if limit is None else limit))

    def _wait_timeout(self) -> float:
        """Sleep bound for one drain: the earliest cell deadline, but
        never longer than the watchdog heartbeat — a wedged pool must not
        block the loop forever."""
        earliest = min(deadline for _, deadline in self.running.values())
        return min(HEARTBEAT_S, max(0.0, earliest - self.pool.clock()))

    def _drain(self) -> None:
        """Record the first finished cells in submission order, then hand
        a broken pool, a dead worker or a passed deadline to
        :meth:`_break`."""
        done = self.pool.wait(set(self.running), self._wait_timeout())
        broken = False
        for future, (spec, _deadline) in list(self.running.items()):
            if future not in done:
                continue
            try:
                result, elapsed = future.result()
            except BrokenProcessPool:
                broken = True  # the cell stays in flight for the handler
                continue
            except Exception as exc:
                del self.running[future]
                self._fail(spec, "error", f"{type(exc).__name__}: {exc}", exc)
                continue
            del self.running[future]
            self._record(spec, result, elapsed)
        # the watchdog: a dead worker breaks the pool whether or not the
        # pool said so, and before any deadline can blame its cell
        if broken or self.pool.died_silently():
            self._break()
            return
        now = self.pool.clock()
        expired = [spec for spec, deadline in self.running.values()
                   if now >= deadline]
        if expired:
            self._break(expired=expired)

    def _break(self, refused: Optional[RunSpec] = None,
               expired: Sequence[RunSpec] = ()) -> None:
        """The one break handler: kill the pool, count the restart, build
        a new pool, and put every cell the old one took down back in a
        queue — the cells in flight and a ``refused`` submit.

        The ``expired`` cells are charged their attempt, and so is a
        suspect that broke the pool running alone; every other cell is
        refunded.  After a timeout the refunded cells go back to the
        front of the queue; after any other break they become suspects."""
        down = [spec for spec, _deadline in self.running.values()]
        if refused is not None:
            down.append(refused)
        self.running.clear()
        self._kill()
        self.restarts += 1
        if self.restarts > self.max_restarts:
            raise CampaignExecutionError(
                f"worker pool kept dying ({self.restarts} restarts); "
                "aborting the campaign"
            )
        self.pool = _ProcessPool(self.max_workers)
        charged = set(expired)
        if self.suspects and refused is None:
            charged.update(down)  # the suspect running alone broke it
        refunded = [spec for spec in down if spec not in charged]
        for spec in refunded:
            self.attempts[spec] -= 1
        if expired:
            self.queue.extendleft(reversed(refunded))
        elif not self.suspects:  # (a suspect taken down is still first)
            self.suspects.extend(refunded)
        limit = self.executor.cell_timeout_s
        for spec in expired:
            if self.attempts[spec] > self.executor.max_cell_retries:
                self._fail(spec, "timeout", f"cell exceeded {limit:g}s "
                           f"{self.attempts[spec]} time(s)")
            elif spec not in self.suspects:
                self.queue.append(spec)


def make_executor(jobs: Optional[int] = 1, cell_timeout_s: Optional[float] = None,
                  max_cell_retries: int = 1, on_failure: str = "raise"):
    """``jobs=1`` -> serial; otherwise a process pool with ``jobs`` workers
    (``None`` -> all cores).  The hardening knobs apply to the parallel
    executor; the serial executor honours ``on_failure`` only."""
    if jobs == 1:
        return SerialExecutor(on_failure=on_failure)
    return ParallelExecutor(jobs, cell_timeout_s=cell_timeout_s,
                            max_cell_retries=max_cell_retries,
                            on_failure=on_failure)


def run_specs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = 1,
    cache: "ResultCache | str | os.PathLike | None" = None,
    progress: Optional[ProgressHook] = None,
    cell_timeout_s: Optional[float] = None,
    max_cell_retries: int = 1,
    on_failure: str = "raise",
    ledger_dir: "str | os.PathLike | None" = None,
    lease_s: float = 900.0,
    campaign_faults=None,
    fleet=None,
) -> Dict[RunSpec, CellOutcome]:
    """Execute a campaign: replay what is known, execute the rest, observe.

    Returns ``{spec: outcome}`` covering every distinct spec in ``specs``
    (duplicates are computed once).  With a ``cache``, already-computed
    cells are loaded instead of re-simulated and fresh cells are stored;
    the returned results are identical either way because cached JSON
    round-trips floats exactly.  With ``on_failure="record"``, cells whose
    worker crashed, hung past ``cell_timeout_s``, or raised map to
    :class:`CellFailure` records (never cached) instead of killing the
    grid.

    With ``ledger_dir``, the campaign becomes *durable*
    (:mod:`repro.campaign.durable`): every cell is journaled ``claim`` →
    (cache write) → ``done``/``failed`` in write-ahead order, so a SIGKILL
    between any two instructions leaves a journal the next invocation
    recovers from — the worst case re-runs exactly the in-flight cells.
    SIGINT/SIGTERM shut the run down gracefully
    (:class:`~repro.errors.CampaignInterrupted` carries the partial
    results and a resume hint), and re-invoking the identical grid with
    the same ``ledger_dir`` resumes bit-identically: completed cells
    replay from the ledger-owned cache (``<ledger_dir>/cache`` unless a
    ``cache`` is given) with zero recomputation, journaled failures replay
    in record mode, and stale claims are reclaimed after ``lease_s``
    seconds (immediately when the owning process is dead).
    ``campaign_faults`` injects runtime chaos (``campaign_kill`` /
    ``torn_cache_write``) for crash-recovery tests and needs a ledger.

    A fresh cell's cache write and ledger record land before its
    ``progress.on_result``.  With a ``fleet``
    (:class:`~repro.obs.registry.FleetAggregator`), every outcome — fresh,
    cached, or ledger-replayed — is folded into the cross-cell rollup in
    one pass in *spec order* after execution (never in completion or
    replay order), so serial vs ``jobs=N`` runs and resumed vs
    uninterrupted runs accumulate floating-point sums in exactly the same
    sequence: the fleet aggregates are bit-identical, not just
    commutatively equivalent.  An interrupted campaign folds nothing.
    """
    check_lease(lease_s)
    if campaign_faults is not None and ledger_dir is None:
        raise ConfigError("campaign_faults requires ledger_dir (the durable "
                          "runtime is what consumes them)")
    driver = CampaignFaultDriver(campaign_faults)
    executor = make_executor(jobs, cell_timeout_s=cell_timeout_s,
                             max_cell_retries=max_cell_retries,
                             on_failure=on_failure)
    if ledger_dir is not None and cache is None:
        cache = make_dir(ledger_dir) / LEDGER_CACHE_DIR
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    unique: List[RunSpec] = list(dict.fromkeys(specs))
    ledger = (None if ledger_dir is None
              else RunLedger(ledger_dir, unique, lease_s=lease_s))
    started = time.perf_counter()
    results: Dict[RunSpec, CellOutcome] = {}
    replayed: set = set()
    executed = 0

    def replay(spec: RunSpec) -> Optional[CellOutcome]:
        """The known outcome of ``spec``, or ``None`` to execute it."""
        if ledger is None:
            return None if cache is None else cache.get(spec)
        cell = spec.content_hash()
        state = ledger.state(cell)
        if state == FAILED and on_failure == "record":
            # ledger records carry the to_dict fields plus journal framing
            # that from_dict ignores
            return CellFailure.from_dict({
                "label": spec.label(), **ledger.failures[cell],
                "spec_hash": cell,
            })
        if state == CLAIMED and ledger.claim_disposition(cell) == "live":
            claim = ledger.claims[cell]
            raise LedgerError(
                f"cell {cell[:12]}... is claimed by a live campaign "
                f"(pid {claim.get('pid')} on {claim.get('host')}, lease "
                f"{claim.get('lease_s', lease_s):g}s); two campaigns "
                "must not share one ledger concurrently"
            )
        # a done cell whose entry is lost or quarantined recomputes; a
        # cache that learned the cell before the journal did heals it
        hit = cache.get(spec)
        if hit is not None and state != DONE:
            ledger.done(spec)
        return hit

    def report(spec: RunSpec, outcome: CellOutcome, elapsed: float) -> None:
        nonlocal executed
        if ledger is None:
            if cache is not None and isinstance(outcome, SimulationResult):
                cache.put(spec, outcome)
        elif isinstance(outcome, SimulationResult):
            index = driver.next_completion()
            fraction = driver.torn_fraction(index)
            if fraction is not None:
                cache.torn_write_hook = lambda _s, _t: fraction
            try:
                cache.put(spec, outcome)
            finally:
                cache.torn_write_hook = None
            window = driver.kill_window(index)
            if window == "pre_ledger":  # pragma: no cover - dies
                driver.kill()
            ledger.done(spec)
            if window == "post_ledger":  # pragma: no cover - dies
                driver.kill()
        else:
            ledger.failed(spec, outcome)
        executed += 1
        if progress is not None:
            progress.on_result(spec, outcome, elapsed, cached=False)

    try:
        if progress is not None:
            progress.on_start(len(unique))
        fresh: List[RunSpec] = []
        for spec in unique:
            outcome = replay(spec)
            if outcome is None:
                fresh.append(spec)
                continue
            results[spec] = outcome
            replayed.add(spec)
            if progress is not None:
                progress.on_result(spec, outcome, 0.0, cached=True)
        if fresh:
            with (nullcontext() if ledger is None
                  else deliver_termination_as_interrupt()):
                results.update(executor.map(
                    fresh, report, None if ledger is None else ledger.claim))
        # one observation pass in spec order, replayed and fresh alike
        # (this is what makes fleet rollups bit-identical across
        # executors and across resume boundaries)
        if fleet is not None:
            for spec in unique:
                fleet.observe(spec, results[spec], cached=spec in replayed)
        if ledger is not None:
            ledger.finish(executed=executed, cached=len(replayed))
        if progress is not None:
            progress.on_finish(time.perf_counter() - started)
        return {spec: results[spec] for spec in unique}
    except KeyboardInterrupt as exc:  # includes CampaignInterrupted
        # a raw Ctrl-C outside execution propagates as-is from a plain
        # run: it has nothing to resume
        if ledger is None and not isinstance(exc, CampaignInterrupted):
            raise
        partial = dict(results)
        if isinstance(exc, CampaignInterrupted):
            # the executor's message already names the reason and counts
            # the cells it was handed (replayed cells are not among them)
            partial.update(exc.results)
            message = str(exc)
        else:
            message = (f"campaign interrupted{_reason(exc)} with "
                       f"{len(partial)} of {len(unique)} cells finished")
        if ledger is None:
            hint = ("re-run with a --cache (or --ledger) directory to keep "
                    "finished cells")
        else:
            ledger.interrupt(message)
            hint = (f"re-run the identical grid with ledger_dir="
                    f"{str(ledger.root)!r} to resume; finished cells replay "
                    "from the ledger without recomputation")
        if progress is not None:
            progress.on_interrupt(message)
        raise CampaignInterrupted(message, results=partial,
                                  resume_hint=hint) from None
    finally:
        if ledger is not None:
            ledger.close()
