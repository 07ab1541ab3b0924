"""Campaign executors and :func:`run_specs`, the one campaign body.

Every cell of a campaign is an independent, fully-seeded simulation
(:func:`repro.campaign.spec.execute`), so the grid is embarrassingly
parallel: :class:`ParallelExecutor` farms specs out to worker processes
that rebuild trace and simulator from the spec alone, which makes its
results bit-identical to :class:`SerialExecutor`'s — the scheduling order
can never leak into a result because nothing is shared between cells.

The parallel executor additionally survives the three ways a worker can
die under it:

* **crash** — a worker process exits (``BrokenProcessPool``): the pool is
  re-created and the in-flight suspects are re-run one at a time to
  isolate the culprit, bounded by ``max_cell_retries``;
* **hang** — a cell outlives ``cell_timeout_s``: the stuck workers are
  killed, the pool re-created, the timed-out cell retried (bounded) and
  the innocent in-flight cells resubmitted without penalty;
* **error** — a cell raises: deterministic, so never retried.

What happens to a cell that exhausts its budget is governed by
``on_failure``: ``"raise"`` (the default) raises
:class:`~repro.errors.CampaignExecutionError` naming the spec by content
hash; ``"record"`` stores a :class:`CellFailure` record under the spec in
the returned mapping so the rest of the grid completes — the mode chaos
campaigns run in.

:func:`run_specs` is the entry point every campaign goes through: it
dedupes the specs, replays what the cache (or, with ``ledger_dir``, the
write-ahead ledger of :mod:`repro.campaign.durable`) already knows, hands
the rest to one executor ``map`` call, and folds every outcome into the
fleet rollup in spec order (failures are never cached).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import (
    CampaignExecutionError,
    CampaignInterrupted,
    ConfigError,
    LedgerError,
)
from ..ssd import SimulationResult
from .cache import ResultCache
from .durable import (
    CLAIMED,
    DONE,
    FAILED,
    LEDGER_CACHE_DIR,
    CampaignFaultDriver,
    RunLedger,
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


def _execute_cell(spec: RunSpec) -> Tuple[RunSpec, SimulationResult, float]:
    """Worker entry point: rebuild everything from the spec and run it."""
    started = time.perf_counter()
    _run_worker_chaos(spec)
    result = execute(spec)
    return spec, result, time.perf_counter() - started


def _reason(exc: BaseException) -> str:
    """`` (why)`` suffix for interrupt messages — e.g. the signal name a
    :func:`~repro.campaign.durable.deliver_termination_as_interrupt`
    handler attached; empty for a plain Ctrl-C."""
    text = str(exc)
    return f" ({text})" if text and not isinstance(
        exc, CampaignInterrupted) else ""


def _check_on_failure(on_failure: str) -> str:
    if on_failure not in ON_FAILURE:
        raise ConfigError(
            f"on_failure must be one of {ON_FAILURE}, got {on_failure!r}"
        )
    return on_failure


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

    def _fail(self, results: Dict[RunSpec, CellOutcome], spec: RunSpec,
              kind: str, message: str, report: Optional[ReportFn] = None) -> None:
        failure = CellFailure(spec_hash=spec.content_hash(),
                              label=spec.label(), kind=kind,
                              message=message, attempts=1)
        if self.on_failure == "raise":
            raise CampaignExecutionError(
                f"cell {failure.label} (spec {failure.spec_hash}) "
                f"{kind}: {message}"
            )
        results[spec] = failure
        if report is not None:
            report(spec, failure, 0.0)

    def map(self, specs: Sequence[RunSpec],
            report: Optional[ReportFn] = None,
            on_claim: Optional[ClaimFn] = None) -> Dict[RunSpec, CellOutcome]:
        traces = {}
        results: Dict[RunSpec, CellOutcome] = {}
        for spec in specs:
            if spec.fault_plan is not None and spec.fault_plan.worker_faults():
                kinds = sorted({f.kind for f in
                                spec.fault_plan.worker_faults()})
                self._fail(results, spec, "crash",
                           f"worker chaos directive {kinds} needs process "
                           "isolation (jobs > 1)", report)
                continue
            key = spec.trace_key()
            if key not in traces:
                traces[key] = build_trace(spec)
            if on_claim is not None:
                on_claim(spec)
            started = time.perf_counter()
            try:
                results[spec] = execute(spec, trace=traces[key])
            except KeyboardInterrupt as exc:
                raise CampaignInterrupted(
                    f"campaign interrupted{_reason(exc)} with "
                    f"{len(results)} of {len(specs)} cells finished",
                    results=results,
                ) from None
            except Exception as exc:
                if self.on_failure == "raise":
                    raise CampaignExecutionError(
                        f"cell {spec.label()} (spec {spec.content_hash()}) "
                        f"raised {type(exc).__name__}: {exc}"
                    ) from exc
                self._fail(results, spec, "error",
                           f"{type(exc).__name__}: {exc}", report)
                continue
            if report is not None:
                try:
                    report(spec, results[spec],
                           time.perf_counter() - started)
                except KeyboardInterrupt as exc:
                    # a signal landing inside the report callback must not
                    # discard the finished cells
                    raise CampaignInterrupted(
                        f"campaign interrupted{_reason(exc)} with "
                        f"{len(results)} of {len(specs)} cells finished",
                        results=results,
                    ) from None
        return results


class ParallelExecutor:
    """Fan specs out over a pool of worker processes, surviving the pool.

    Workers receive only the (picklable) spec and rebuild trace + simulator
    locally, so results are bit-identical to a serial run regardless of
    completion order, worker count, or which worker ran which cell.

    ``cell_timeout_s`` bounds each cell's wall clock (``None`` = no bound);
    ``max_cell_retries`` bounds how often a crashed or timed-out cell is
    re-run before it is declared failed; ``on_failure`` picks between
    raising a typed :class:`~repro.errors.CampaignExecutionError` and
    recording a :class:`CellFailure` in the result mapping.

    A watchdog wakes the main loop at least every :data:`HEARTBEAT_S`
    seconds and restarts a pool whose workers died without telling it.

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
        if cell_timeout_s is not None and cell_timeout_s <= 0:
            raise ConfigError("cell_timeout_s must be positive (or None)")
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


class _PoolRun:
    """One hardened parallel campaign execution (internal)."""

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
        self.attempts: Dict[RunSpec, int] = {spec: 0 for spec in specs}
        self.pool: Optional[ProcessPoolExecutor] = None
        #: future -> (spec, submitted_at); every submitted future is
        #: running (we never queue more than ``max_workers`` at once), so
        #: submission time is a fair start of its timeout window
        self.running: Dict[object, Tuple[RunSpec, float]] = {}
        self.restarts = 0
        self.max_restarts = 2 * len(specs) * (executor.max_cell_retries + 1) + 4

    # --- pool lifecycle ---------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.max_workers,
                                   initializer=_init_worker)

    def _kill_pool(self) -> None:
        """Terminate worker processes (they may be hung) and drop the pool."""
        pool = self.pool
        self.pool = None
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _restart_pool(self) -> None:
        self._kill_pool()
        self.restarts += 1
        if self.restarts > self.max_restarts:
            raise CampaignExecutionError(
                f"worker pool kept dying ({self.restarts} restarts); "
                "aborting the campaign"
            )
        self.running.clear()
        self.pool = self._new_pool()

    def _workers_died_silently(self) -> bool:
        """Watchdog probe: true when a worker process is dead while cells
        are still in flight and the pool has not surfaced the break."""
        if self.pool is None or not self.running:
            return False
        procs = list(getattr(self.pool, "_processes", {}).values())
        return bool(procs) and any(not proc.is_alive() for proc in procs)

    # --- outcome bookkeeping ----------------------------------------------

    def _record_success(self, spec: RunSpec, result: SimulationResult,
                        elapsed: float) -> None:
        self.results[spec] = result
        if self.report is not None:
            self.report(spec, result, elapsed)

    def _fail(self, spec: RunSpec, kind: str, message: str) -> None:
        failure = CellFailure(spec_hash=spec.content_hash(),
                              label=spec.label(), kind=kind, message=message,
                              attempts=self.attempts[spec])
        if self.executor.on_failure == "raise":
            self._kill_pool()
            raise CampaignExecutionError(
                f"cell {failure.label} (spec {failure.spec_hash}) "
                f"{kind} after {failure.attempts} attempt(s): {message}"
            )
        self.results[spec] = failure
        if self.report is not None:
            self.report(spec, failure, 0.0)

    def _cell_error(self, spec: RunSpec, exc: Exception) -> None:
        """The cell itself raised — deterministic, so never retried."""
        if self.executor.on_failure == "raise":
            self._kill_pool()
            raise CampaignExecutionError(
                f"cell {spec.label()} (spec {spec.content_hash()}) raised "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        self._fail(spec, "error", f"{type(exc).__name__}: {exc}")

    # --- main loop --------------------------------------------------------

    def run(self) -> Dict[RunSpec, CellOutcome]:
        self.pool = self._new_pool()
        # belt and braces: if the interpreter exits while the pool is
        # live (unhandled signal, sys.exit from a hook), the guard still
        # terminates the workers — no orphan processes
        atexit.register(self._kill_pool)
        try:
            while self.queue or self.running:
                self._refill()
                if not self.running:
                    continue
                self._drain_once()
            return self.results
        except KeyboardInterrupt as exc:
            raise CampaignInterrupted(
                f"campaign interrupted{_reason(exc)} with "
                f"{len(self.results)} of {len(self.specs)} cells finished",
                results=dict(self.results),
            ) from None
        finally:
            self._kill_pool()
            atexit.unregister(self._kill_pool)

    def _refill(self) -> None:
        while self.queue and len(self.running) < self.max_workers:
            spec = self.queue.popleft()
            self.attempts[spec] += 1
            if self.on_claim is not None:
                self.on_claim(spec)
            try:
                future = self.pool.submit(_execute_cell, spec)
            except BrokenProcessPool:
                # the pool died between drains; put the spec back and
                # rebuild (its attempt did not run)
                self.attempts[spec] -= 1
                self.queue.appendleft(spec)
                self._restart_pool()
                continue
            self.running[future] = (spec, time.monotonic())

    def _wait_timeout(self) -> float:
        """Sleep bound for one drain: the earliest cell deadline when a
        cell timeout is configured, but never longer than the watchdog
        heartbeat — a wedged pool must not block the loop forever."""
        limit = self.executor.cell_timeout_s
        if limit is None:
            return HEARTBEAT_S
        earliest = min(t for _, t in self.running.values())
        return min(HEARTBEAT_S, max(0.0, earliest + limit - time.monotonic()))

    def _drain_once(self) -> None:
        done, _ = wait(set(self.running), timeout=self._wait_timeout(),
                       return_when=FIRST_COMPLETED)
        suspects: List[RunSpec] = []
        broken = False
        for future in done:
            spec, _started = self.running.pop(future)
            try:
                _spec, result, elapsed = future.result()
            except BrokenProcessPool:
                broken = True
                suspects.append(spec)
            except Exception as exc:
                self._cell_error(spec, exc)
            else:
                self._record_success(spec, result, elapsed)
        if not done and not broken and self._workers_died_silently():
            # watchdog: a worker is gone but the pool never told us —
            # treat it exactly like a surfaced BrokenProcessPool
            broken = True
        if broken:
            # every other in-flight cell is doomed with the pool; re-run
            # all suspects one at a time to isolate the culprit.  The swept
            # attempt is refunded — innocents should not burn retry budget
            # on someone else's crash, and the culprit will spend real
            # attempts crashing the single-cell pool below
            suspects.extend(spec for spec, _t in self.running.values())
            for spec in suspects:
                self.attempts[spec] = max(0, self.attempts[spec] - 1)
            self._restart_pool()
            self._isolate(suspects)
            return
        self._reap_timeouts()

    def _reap_timeouts(self) -> None:
        limit = self.executor.cell_timeout_s
        if limit is None or not self.running:
            return
        now = time.monotonic()
        expired = [(future, spec) for future, (spec, started)
                   in self.running.items() if now - started >= limit]
        if not expired:
            return
        expired_specs = {spec for _f, spec in expired}
        innocents = [spec for _f, (spec, _t) in self.running.items()
                     if spec not in expired_specs]
        # the stuck workers must die; innocents are resubmitted without
        # burning their retry budget
        for spec in innocents:
            self.attempts[spec] -= 1
            self.queue.appendleft(spec)
        self._restart_pool()
        for _future, spec in expired:
            if self.attempts[spec] > self.executor.max_cell_retries:
                self._fail(spec, "timeout",
                           f"cell exceeded {limit:g}s "
                           f"{self.attempts[spec]} time(s)")
            else:
                self.queue.append(spec)

    def _isolate(self, suspects: List[RunSpec]) -> None:
        """Re-run pool-break suspects one at a time: the culprit breaks the
        (single-cell) pool again and exhausts its retry budget; innocents
        simply complete."""
        limit = self.executor.cell_timeout_s
        for spec in suspects:
            while True:
                if self.attempts[spec] > self.executor.max_cell_retries:
                    self._fail(spec, "crash",
                               "worker process died while executing this "
                               f"cell ({self.attempts[spec]} attempt(s))")
                    break
                self.attempts[spec] += 1
                if self.on_claim is not None:
                    self.on_claim(spec)
                future = self.pool.submit(_execute_cell, spec)
                try:
                    _spec, result, elapsed = future.result(timeout=limit)
                except BrokenProcessPool:
                    self._restart_pool()
                    continue
                except FutureTimeoutError:
                    self._restart_pool()
                    if self.attempts[spec] > self.executor.max_cell_retries:
                        self._fail(spec, "timeout",
                                   f"cell exceeded {limit:g}s "
                                   f"{self.attempts[spec]} time(s)")
                        break
                    continue
                except Exception as exc:
                    self._cell_error(spec, exc)
                    break
                else:
                    self._record_success(spec, result, elapsed)
                    break


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
    if campaign_faults is not None and ledger_dir is None:
        raise ConfigError("campaign_faults requires ledger_dir (the durable "
                          "runtime is what consumes them)")
    driver = CampaignFaultDriver(campaign_faults)
    executor = make_executor(jobs, cell_timeout_s=cell_timeout_s,
                             max_cell_retries=max_cell_retries,
                             on_failure=on_failure)
    if ledger_dir is not None and cache is None:
        cache = Path(ledger_dir).expanduser() / LEDGER_CACHE_DIR
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
