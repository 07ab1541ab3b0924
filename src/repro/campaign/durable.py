"""Durable campaign runtime: write-ahead run ledger, resume, supervision.

A plain campaign keeps all bookkeeping in process memory: a SIGKILL, OOM
kill, or host reboot mid-grid loses everything except whatever the result
cache happened to persist.  This module holds the pieces that make the
*campaign process itself* crash-safe;
:func:`~repro.campaign.executor.run_specs` wires them in whenever it is
given a ``ledger_dir``:

* **write-ahead run ledger** (:class:`RunLedger`) — an append-only JSONL
  journal per campaign directory recording the grid identity
  (:func:`grid_hash`) and every per-cell state transition
  ``pending → claimed → done | failed``.  Each line carries a CRC and is
  fsync'd before the transition is acted on, so the journal is a prefix
  of the truth at every instant; a torn final line (the only damage a
  crash can inflict) is detected and truncated on the next open, and the
  ``open`` record of that reopen journals the ``recovered_bytes``.
* **resume** — reopening a ledger replays the journal: ``done`` cells
  load from the ledger-owned cache with zero recomputation, ``failed``
  cells replay their :class:`~repro.campaign.executor.CellFailure`
  (record mode), ``claimed`` cells whose owner died or whose lease
  expired are reclaimed, and a changed grid hash is a hard
  :class:`~repro.errors.LedgerError` — never a silent partial reuse.
  Because every cell is a pure function of its spec, the resumed
  campaign's final mapping is bit-identical to an uninterrupted run.
* **supervised shutdown** — :func:`deliver_termination_as_interrupt`
  turns SIGTERM into the same graceful path as Ctrl-C: the claim loop
  stops, workers are terminated (no orphans), this run's claims are
  released, and :class:`~repro.errors.CampaignInterrupted` carries the
  partial results and a resume hint.
* **chaos seams** — :class:`CampaignFaultDriver` consumes the
  ``campaign_kill`` / ``torn_cache_write`` fault kinds
  (:mod:`repro.faults`), SIGKILLing the campaign or tearing a cache write
  at a deterministic completed-cell index so the crash-recovery tests can
  hit every window, including mid-cache-write.

``python -m repro.campaign verify-ledger DIR`` runs :func:`verify_ledger`,
the fsck of this format: per-line CRC validation, state reconstruction,
claim-lease status, and a read-only checksum scan of the cache's log
(torn and bit-rotted records).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import socket
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError, LedgerError
from ..faults import CAMPAIGN_FAULT_KINDS, FaultPlan, FaultSpec
from ..obs.telemetry import wall_clock
from .cache import LOG_FILENAME, QUARANTINE_DIR, make_dir, scan
from .spec import SPEC_SCHEMA_VERSION, RunSpec

#: Bump when the meaning of any ledger record changes; mixed into every
#: ``open`` record so foreign journals are rejected, not misread.
LEDGER_SCHEMA_VERSION = 1

#: Journal file name inside a campaign's ledger directory.
LEDGER_FILENAME = "ledger.jsonl"

#: Cache directory the ledger owns (unless the caller supplies one).
LEDGER_CACHE_DIR = "cache"

#: Cell states reconstructed from the journal.
PENDING, CLAIMED, DONE, FAILED = "pending", "claimed", "done", "failed"

_HOSTNAME = socket.gethostname()


def grid_hash(specs: Sequence[RunSpec]) -> str:
    """Stable identity of a campaign grid: the sorted cell hashes.

    Order-insensitive on purpose — resuming the same set of cells in a
    different iteration order is still the same campaign — but any added,
    removed, or changed cell yields a different grid.
    """
    payload = json.dumps(
        {"schema": SPEC_SCHEMA_VERSION,
         "cells": sorted({spec.content_hash() for spec in specs})},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


# --- journal lines ----------------------------------------------------------


def _line_checksum(record: dict) -> str:
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(payload.encode('utf-8')):08x}"


def encode_record(record: dict) -> bytes:
    """One journal line: the record plus its CRC, newline-terminated."""
    stamped = dict(record)
    stamped["c"] = _line_checksum(record)
    return (json.dumps(stamped, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_record(line: bytes) -> Tuple[Optional[dict], str]:
    """Parse one journal line; ``(record, "")`` or ``(None, reason)``."""
    try:
        data = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return None, f"unparseable line ({exc})"
    if not isinstance(data, dict):
        return None, "line is not a JSON object"
    stored = data.pop("c", None)
    if stored is None:
        return None, "missing checksum field"
    if stored != _line_checksum(data):
        return None, "checksum mismatch"
    return data, ""


# --- replay -----------------------------------------------------------------


@dataclass
class LedgerReplay:
    """Everything reconstructed from one pass over a journal."""

    grid: Optional[str] = None
    schema: Optional[int] = None
    records: int = 0
    opens: int = 0
    states: Dict[str, str] = field(default_factory=dict)
    claims: Dict[str, dict] = field(default_factory=dict)
    failures: Dict[str, dict] = field(default_factory=dict)
    done_records: Dict[str, int] = field(default_factory=dict)
    #: byte offset to truncate at when the tail is torn (``None`` = clean)
    truncate_at: Optional[int] = None
    #: mid-file damage as ``(line_number, reason)`` (lenient mode only)
    corrupt: List[Tuple[int, str]] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out = {DONE: 0, FAILED: 0, CLAIMED: 0}
        for state in self.states.values():
            if state in out:
                out[state] += 1
        return out


def _apply_record(replay: LedgerReplay, record: dict, lineno: int,
                  strict: bool, path: Path) -> None:
    event = record.get("event")
    if event == "open":
        replay.opens += 1
        if replay.grid is None:
            replay.grid = record.get("grid")
            replay.schema = record.get("schema")
        elif record.get("grid") != replay.grid:
            message = (f"ledger {path} line {lineno}: open record for a "
                       f"different grid ({record.get('grid')!r})")
            if strict:
                raise LedgerError(message)
            replay.corrupt.append((lineno, message))
        return
    cell = record.get("cell")
    if event == "claim":
        if replay.states.get(cell) != DONE:
            replay.states[cell] = CLAIMED
        replay.claims[cell] = record
    elif event == "done":
        replay.states[cell] = DONE
        replay.done_records[cell] = replay.done_records.get(cell, 0) + 1
    elif event == "failed":
        if replay.states.get(cell) != DONE:
            replay.states[cell] = FAILED
            replay.failures[cell] = record
    elif event == "release":
        if replay.states.get(cell) == CLAIMED:
            replay.states[cell] = PENDING
            replay.claims.pop(cell, None)
    # "interrupt" / "finish" / unknown events: informational only


def replay_ledger(path: Path, strict: bool = True) -> LedgerReplay:
    """Reconstruct cell states from a journal.

    ``strict`` (the open-for-resume mode) raises
    :class:`~repro.errors.LedgerError` on mid-file corruption; lenient
    mode (``verify-ledger``) collects it instead.  A damaged *final* line
    — the only damage an append-then-fsync discipline can suffer in a
    crash — is never an error: ``truncate_at`` marks where to cut.
    """
    replay = LedgerReplay()
    try:
        data = path.read_bytes()
    except OSError:
        return replay
    offset, lineno, size = 0, 0, len(data)
    while offset < size:
        newline = data.find(b"\n", offset)
        if newline == -1:
            replay.truncate_at = offset  # partial final line (torn write)
            break
        lineno += 1
        record, reason = decode_record(data[offset:newline])
        if record is None:
            if newline + 1 >= size:
                replay.truncate_at = offset  # corrupt final line
                break
            message = f"ledger {path} line {lineno}: {reason}"
            if strict:
                raise LedgerError(
                    f"{message} with records after it — the journal is "
                    "corrupt beyond tail recovery; quarantine it and start "
                    "a fresh ledger directory"
                )
            replay.corrupt.append((lineno, reason))
            offset = newline + 1
            continue
        _apply_record(replay, record, lineno, strict, path)
        replay.records += 1
        offset = newline + 1
    return replay


# --- the ledger -------------------------------------------------------------


def check_lease(lease_s: float) -> float:
    """A claim lease in seconds, which must be positive and finite: a NaN
    or infinite lease never expires (``age >= lease_s`` stays false) and
    journals as ``NaN``/``Infinity``, which is not JSON."""
    if not 0 < lease_s < math.inf:
        raise ConfigError(
            f"lease_s must be positive and finite, got {lease_s}")
    return float(lease_s)


class RunLedger:
    """Write-ahead journal for one campaign grid.

    Opening replays any existing journal (recovering a torn tail by
    truncation), validates the grid hash, and appends an ``open`` record.
    Transition appends are flushed and fsync'd before returning, so a
    transition the caller acted on is always on disk.
    """

    def __init__(self, directory, specs: Sequence[RunSpec],
                 lease_s: float = 900.0):
        self.lease_s = check_lease(lease_s)
        self.root = make_dir(directory)
        self.path = self.root / LEDGER_FILENAME
        self.specs = list(dict.fromkeys(specs))
        self.cells = {spec.content_hash(): spec for spec in self.specs}
        self.grid = grid_hash(self.specs)

        replay = replay_ledger(self.path, strict=True)
        if replay.grid is not None and replay.grid != self.grid:
            raise LedgerError(
                f"ledger {self.path} belongs to grid {replay.grid[:12]}..., "
                f"but this campaign is grid {self.grid[:12]}... — a resumed "
                "campaign must present the identical cell set (no silent "
                "partial reuse); use a fresh ledger directory for a new grid"
            )
        unknown = set(replay.states) - set(self.cells)
        if unknown:
            raise LedgerError(
                f"ledger {self.path} references {len(unknown)} cell(s) not "
                "in this grid despite a matching grid hash — the journal "
                "is corrupt; start a fresh ledger directory"
            )
        self.recovered_bytes = 0
        if replay.truncate_at is not None:
            size = self.path.stat().st_size
            with open(self.path, "r+b") as handle:
                handle.truncate(replay.truncate_at)
            self.recovered_bytes = size - replay.truncate_at
        self.states: Dict[str, str] = replay.states
        self.claims: Dict[str, dict] = replay.claims
        self.failures: Dict[str, dict] = replay.failures
        #: cells claimed by *this* process and not yet resolved — released
        #: on close so a graceful exit never strands a claim
        self._owned: set = set()
        self._handle = open(self.path, "ab")
        opened = {
            "event": "open", "grid": self.grid, "schema":
            LEDGER_SCHEMA_VERSION, "cells": len(self.specs),
            "pid": os.getpid(), "host": _HOSTNAME, "at": wall_clock(),
        }
        if self.recovered_bytes:
            opened["recovered_bytes"] = self.recovered_bytes
        self._append(opened)

    # --- low-level append -------------------------------------------------

    def _append(self, record: dict) -> None:
        if self._handle.closed:
            return
        self._handle.write(encode_record(record))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # --- state queries ----------------------------------------------------

    def state(self, cell_hash: str) -> str:
        return self.states.get(cell_hash, PENDING)

    def claim_disposition(self, cell_hash: str) -> str:
        """``"reclaim"`` when a claimed cell may be taken over, ``"live"``
        when its owner still holds an unexpired lease."""
        record = self.claims.get(cell_hash)
        if record is None:
            return "reclaim"
        pid, host = record.get("pid", -1), record.get("host")
        if host == _HOSTNAME and pid == os.getpid():
            return "reclaim"  # our own stale claim (same-process resume)
        if wall_clock() - record.get("at", 0.0) >= record.get("lease_s",
                                                             self.lease_s):
            return "reclaim"
        if host == _HOSTNAME and not _pid_alive(pid):
            return "reclaim"  # owner died on this host: no need to wait
        return "live"

    # --- transitions ------------------------------------------------------

    def claim(self, spec: RunSpec) -> None:
        cell = spec.content_hash()
        record = {
            "event": "claim", "cell": cell, "label": spec.label(),
            "pid": os.getpid(), "host": _HOSTNAME,
            "lease_s": self.lease_s, "at": wall_clock(),
        }
        self._append(record)
        self.states[cell] = CLAIMED
        self.claims[cell] = record
        self._owned.add(cell)

    def done(self, spec: RunSpec) -> None:
        cell = spec.content_hash()
        self._append({"event": "done", "cell": cell, "at": wall_clock()})
        self.states[cell] = DONE
        self._owned.discard(cell)

    def failed(self, spec: RunSpec, failure) -> None:
        cell = spec.content_hash()
        record = {
            "event": "failed", "cell": cell, "label": failure.label,
            "kind": failure.kind, "message": failure.message,
            "attempts": failure.attempts, "at": wall_clock(),
        }
        self._append(record)
        self.states[cell] = FAILED
        self.failures[cell] = record
        self._owned.discard(cell)

    def release(self, cell_hash: str) -> None:
        self._append({"event": "release", "cell": cell_hash,
                      "at": wall_clock()})
        if self.states.get(cell_hash) == CLAIMED:
            self.states[cell_hash] = PENDING
        self.claims.pop(cell_hash, None)
        self._owned.discard(cell_hash)

    def interrupt(self, reason: str) -> None:
        self._append({"event": "interrupt", "reason": reason,
                      "pid": os.getpid(), "at": wall_clock()})

    def finish(self, executed: int, cached: int) -> None:
        self._append({"event": "finish", "executed": executed,
                      "cached": cached, "at": wall_clock()})

    def close(self) -> None:
        """Release every claim this process still holds and close the
        journal.  Safe to call more than once."""
        if self._handle.closed:
            return
        for cell in sorted(self._owned):
            self.release(cell)
        self._handle.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --- campaign-level chaos ---------------------------------------------------


class CampaignFaultDriver:
    """Evaluates ``campaign_kill`` / ``torn_cache_write`` triggers against
    the completed-cell index of the running campaign (deterministic, like
    every other fault schedule)."""

    def __init__(self, plan: "FaultPlan | dict | None"):
        if plan is not None and not isinstance(plan, FaultPlan):
            plan = FaultPlan.from_dict(dict(plan))
        self.plan = plan
        if plan is not None:
            foreign = sorted({f.kind for f in plan.faults
                              if f.kind not in CAMPAIGN_FAULT_KINDS})
            if foreign:
                raise ConfigError(
                    f"campaign_faults only accepts {CAMPAIGN_FAULT_KINDS}; "
                    f"got {foreign} (attach simulator/worker faults to the "
                    "RunSpec's fault_plan instead)"
                )
        self._states: List[list] = (
            [] if plan is None else [[f, 0] for f in plan.campaign_faults()]
        )
        self._completions = 0

    def next_completion(self) -> int:
        """The ordinal of the cell completion being processed (counts
        cells *executed by this invocation*, not cache/ledger replays)."""
        index = self._completions
        self._completions += 1
        return index

    def _fire(self, kind: str, index: int) -> Optional[FaultSpec]:
        for state in self._states:
            fault, fired = state
            if fault.kind != kind:
                continue
            if fault.count is not None and fired >= fault.count:
                continue
            if not fault.due_at(index):
                continue
            state[1] += 1
            return fault
        return None

    def torn_fraction(self, index: int) -> Optional[float]:
        fault = self._fire("torn_cache_write", index)
        return None if fault is None else fault.magnitude

    def kill_window(self, index: int) -> Optional[str]:
        fault = self._fire("campaign_kill", index)
        if fault is None:
            return None
        return "pre_ledger" if fault.magnitude == 0.0 else "post_ledger"

    @staticmethod
    def kill() -> None:  # pragma: no cover - the process dies here
        os.kill(os.getpid(), signal.SIGKILL)


# --- supervised execution ---------------------------------------------------


@contextmanager
def deliver_termination_as_interrupt():
    """Convert SIGTERM into KeyboardInterrupt for the enclosed block, so a
    polite kill takes the same graceful-shutdown path as Ctrl-C.  No-op
    off the main thread (signal handlers are a main-thread privilege)."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt(f"terminated by signal {signum}")

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


# --- fsck -------------------------------------------------------------------


def verify_ledger(directory,
                  cache_dir: "str | os.PathLike | None" = None) -> dict:
    """fsck a campaign directory: journal integrity + cache checksums.

    Never raises on damage — everything is reported in the returned dict.
    ``ok`` is ``False`` only for *unrecoverable* problems (mid-file journal
    corruption, conflicting grids, corrupt cache entries); a torn tail or
    stale claims are recoverable by a resume and reported as such.
    """
    root = Path(directory).expanduser()
    cache_root = (root / LEDGER_CACHE_DIR if cache_dir is None
                  else Path(cache_dir).expanduser())
    for checked in (root, cache_root):
        if checked.exists() and not checked.is_dir():
            raise ConfigError(f"{checked} is not a directory")
    path = root / LEDGER_FILENAME
    replay = replay_ledger(path, strict=False)
    counts = replay.counts()
    log = cache_root / LOG_FILENAME
    cached, cache_bad, _ = scan(log.read_bytes() if log.is_file() else b"")
    quarantined = len(list((cache_root / QUARANTINE_DIR).glob("*.rec")))
    done_without_cache = sorted(
        cell for cell, state in replay.states.items()
        if state == DONE and cell not in cached
    )
    duplicate_done = {cell: n for cell, n in replay.done_records.items()
                      if n > 1}
    stale_claims = []
    for cell, state in sorted(replay.states.items()):
        if state != CLAIMED:
            continue
        record = replay.claims.get(cell, {})
        age = wall_clock() - record.get("at", 0.0)
        expired = age >= record.get("lease_s", 0.0)
        owner_dead = (record.get("host") == _HOSTNAME
                      and not _pid_alive(record.get("pid", -1)))
        stale_claims.append({
            "cell": cell, "pid": record.get("pid"),
            "host": record.get("host"), "age_s": age,
            "reclaimable": expired or owner_dead,
        })
    return {
        "path": str(path),
        "exists": path.exists(),
        "grid": replay.grid,
        "schema": replay.schema,
        "records": replay.records,
        "opens": replay.opens,
        "cells": counts,
        "truncated_tail_bytes": (
            0 if replay.truncate_at is None
            else path.stat().st_size - replay.truncate_at),
        "corrupt_lines": [
            {"line": lineno, "reason": reason}
            for lineno, reason in replay.corrupt
        ],
        "duplicate_done": duplicate_done,
        "claims": stale_claims,
        "done_without_cache": done_without_cache,
        "cache": {
            "root": str(cache_root),
            "entries_ok": len(cached),
            "corrupt": [{"entry": f"byte {offset}", "reason": reason}
                        for offset, _, reason in cache_bad],
            "quarantined": quarantined,
        },
        "ok": not replay.corrupt and not cache_bad,
    }


def format_verify_report(report: dict) -> str:
    """Human-readable rendering of a :func:`verify_ledger` report."""
    lines = [f"ledger   {report['path']}"]
    if not report["exists"]:
        lines.append("         (no journal found)")
    else:
        grid = report["grid"] or "?"
        lines.append(f"grid     {grid[:16]}...  schema {report['schema']}  "
                     f"{report['records']} records, {report['opens']} opens")
        cells = report["cells"]
        lines.append(f"cells    {cells[DONE]} done, {cells[FAILED]} failed, "
                     f"{cells[CLAIMED]} claimed")
    if report["truncated_tail_bytes"]:
        lines.append(f"tail     {report['truncated_tail_bytes']} torn "
                     "byte(s) — recoverable (truncated on next resume)")
    for item in report["corrupt_lines"]:
        lines.append(f"CORRUPT  line {item['line']}: {item['reason']}")
    for cell, n in sorted(report["duplicate_done"].items()):
        lines.append(f"note     cell {cell[:12]}... has {n} done records "
                     "(idempotent replay: harmless)")
    for claim in report["claims"]:
        status = "reclaimable" if claim["reclaimable"] else "LIVE"
        lines.append(f"claim    {claim['cell'][:12]}... held by pid "
                     f"{claim['pid']} on {claim['host']} "
                     f"({claim['age_s']:.0f}s old, {status})")
    for cell in report["done_without_cache"]:
        lines.append(f"note     done cell {cell[:12]}... has no cache entry "
                     "(will recompute on resume)")
    cache = report["cache"]
    lines.append(f"cache    {cache['entries_ok']} entr(ies) ok, "
                 f"{len(cache['corrupt'])} corrupt, "
                 f"{cache['quarantined']} quarantined ({cache['root']})")
    for item in cache["corrupt"]:
        lines.append(f"CORRUPT  cache entry {item['entry']}: "
                     f"{item['reason']}")
    lines.append("status   " + ("OK" if report["ok"] else "DAMAGED"))
    return "\n".join(lines)
