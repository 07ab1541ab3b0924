"""Campaign layer: declarative run specs, parallel grid execution, and
serialisable results for every SSD-level experiment.

The repo's hottest path is the (workload x P/E x policy) evaluation sweep
behind Figs. 6/17/18/19 and the ablation benches.  Each cell is an
independent, fully-seeded :class:`~repro.ssd.simulator.SSDSimulator` run,
so the sweep is embarrassingly parallel and cacheable; this package makes
that structure explicit:

* :mod:`.spec` — :class:`RunSpec`, a frozen value describing one run, with
  a stable content hash and builders that rebuild trace + simulator from
  the spec alone;
* :mod:`.executor` — :func:`run_specs`, the one campaign body every
  entry point goes through (dedupe, cache or ledger replay, one executor
  ``map`` over the fresh cells, a spec-order fleet rollup), and its
  :class:`SerialExecutor` / :class:`ParallelExecutor` (``jobs=N`` gives
  bit-identical results to ``jobs=1``); the parallel executor survives
  worker crashes, hangs (``cell_timeout_s``) and deterministic cell
  errors, turning them into per-cell :class:`CellFailure` records under
  ``on_failure="record"``;
* :mod:`.cache` — :class:`ResultCache`, a content-addressed on-disk store
  (spec hash -> result JSON) that skips already-computed cells: one
  append-only log per directory, with fsync'd appends, checksummed reads,
  and quarantine of damaged records;
* :mod:`.durable` — the crash-safe campaign runtime that
  ``run_specs(..., ledger_dir=...)`` wires in: :class:`RunLedger` (a
  write-ahead JSONL journal of per-cell state transitions, replayed on
  resume), SIGTERM-as-interrupt shutdown, the campaign chaos driver, and
  :func:`verify_ledger` (the fsck behind
  ``python -m repro.campaign verify-ledger``);
* :mod:`.serialize` — exact JSON round-tripping of results, and the
  cache's checksummed record;
* :mod:`.progress` — per-cell completion and wall-clock hooks, including
  the streaming telemetry reporters (:class:`LiveProgress` rewriting
  status line, :class:`JsonlProgress` machine-readable campaign log)
  built on :mod:`repro.obs.telemetry`.
"""

from .cache import ResultCache
from .durable import (
    CampaignFaultDriver,
    RunLedger,
    grid_hash,
    replay_ledger,
    verify_ledger,
)
from .executor import (
    CellFailure,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    run_specs,
)
from .progress import (
    CampaignStats,
    DashboardProgress,
    JsonlProgress,
    LiveProgress,
    MultiProgress,
    PrintProgress,
    ProgressHook,
    cell_report,
)
from .serialize import dump_entry, load_entry
from .spec import (
    RunSpec,
    SPEC_SCHEMA_VERSION,
    SsdScale,
    build_config,
    build_simulator,
    build_trace,
    execute,
    grid_specs,
    ssd_scale,
)

__all__ = [
    "RunSpec",
    "SPEC_SCHEMA_VERSION",
    "SsdScale",
    "ssd_scale",
    "grid_specs",
    "build_config",
    "build_simulator",
    "build_trace",
    "execute",
    "SerialExecutor",
    "ParallelExecutor",
    "CellFailure",
    "make_executor",
    "run_specs",
    "ResultCache",
    "RunLedger",
    "CampaignFaultDriver",
    "grid_hash",
    "replay_ledger",
    "verify_ledger",
    "ProgressHook",
    "CampaignStats",
    "PrintProgress",
    "LiveProgress",
    "JsonlProgress",
    "MultiProgress",
    "DashboardProgress",
    "cell_report",
    "dump_entry",
    "load_entry",
]
