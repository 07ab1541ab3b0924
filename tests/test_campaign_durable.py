"""Durable campaign runtime: ledger replay, crash-safe cache, resume.

The contract under test (ISSUE acceptance criteria): a campaign killed at
any instant resumes from its write-ahead ledger to a result *exactly*
equal to an uninterrupted run, with completed cells never re-executed;
damaged storage (torn journal tail, corrupt cache entries) is recovered
or quarantined, never silently trusted and never a crash.
"""

import json
import os
import signal
import warnings

import pytest

from repro.campaign import (
    CampaignFaultDriver,
    CampaignStats,
    CellFailure,
    ResultCache,
    RunLedger,
    RunSpec,
    execute,
    grid_hash,
    replay_ledger,
    run_specs,
    verify_ledger,
)
from repro.campaign.__main__ import main as campaign_cli
from repro.campaign.durable import (
    LEDGER_FILENAME,
    decode_record,
    deliver_termination_as_interrupt,
    encode_record,
    format_verify_report,
)
from repro.campaign.serialize import dump_entry
from repro.errors import (
    CampaignInterrupted,
    ConfigError,
    LedgerError,
)
from repro.faults import FaultPlan, FaultSpec

FAST = dict(n_requests=60, user_pages=2000, queue_depth=16)

CRASH = FaultPlan(faults=(FaultSpec(kind="worker_crash"),))


def _spec(policy="SWR", **overrides) -> RunSpec:
    base = dict(workload="Ali124", policy=policy, pe_cycles=1000.0, seed=3,
                **FAST)
    base.update(overrides)
    return RunSpec(**base)


def _grid(n=3):
    policies = ("SWR", "SENC", "RiFSSD", "SSDzero", "RPSSD")
    return [_spec(policy=p) for p in policies[:n]]


def _dicts(results):
    return {spec.content_hash(): outcome.to_dict()
            for spec, outcome in results.items()}


# --- grid identity ------------------------------------------------------------------


def test_grid_hash_is_order_insensitive_but_content_sensitive():
    specs = _grid(3)
    assert grid_hash(specs) == grid_hash(list(reversed(specs)))
    assert grid_hash(specs) == grid_hash(specs + [specs[0]])  # dup = same set
    assert grid_hash(specs) != grid_hash(specs[:2])
    assert grid_hash(specs) != grid_hash(specs[:2] + [_spec(seed=4)])


# --- ledger record format -----------------------------------------------------------


def test_ledger_replay_roundtrip(tmp_path):
    specs = _grid(2)
    ledger = RunLedger(tmp_path, specs)
    ledger.claim(specs[0])
    ledger.done(specs[0])
    ledger.claim(specs[1])
    ledger.close()  # releases the unfinished claim

    replay = replay_ledger(tmp_path / LEDGER_FILENAME)
    assert replay.truncate_at is None and not replay.corrupt
    assert replay.grid == grid_hash(specs)
    assert replay.states[specs[0].content_hash()] == "done"
    # the released claim reads back as pending, not stranded
    assert replay.states[specs[1].content_hash()] == "pending"


def test_ledger_truncated_tail_is_recovered(tmp_path):
    specs = _grid(2)
    with RunLedger(tmp_path, specs) as ledger:
        ledger.claim(specs[0])
        ledger.done(specs[0])
    path = tmp_path / LEDGER_FILENAME
    with open(path, "ab") as handle:
        handle.write(b'{"event":"done","cell":"deadbeef","c":"0')  # torn line

    ledger = RunLedger(tmp_path, specs)  # reopen: truncate, do not raise
    assert ledger.recovered_bytes > 0
    assert ledger.state(specs[0].content_hash()) == "done"
    ledger.close()
    # the reopen journaled the damage it cut
    opens = [record for record, _ in map(decode_record,
                                         path.read_bytes().splitlines())
             if record["event"] == "open"]
    assert [record.get("recovered_bytes") for record in opens] == [
        None, ledger.recovered_bytes]
    # the torn bytes are gone for good: a third open recovers nothing
    assert RunLedger(tmp_path, specs).recovered_bytes == 0


def test_ledger_midfile_corruption_is_fatal_strict_reported_lenient(tmp_path):
    specs = _grid(1)
    with RunLedger(tmp_path, specs) as ledger:
        ledger.claim(specs[0])
        ledger.done(specs[0])
    path = tmp_path / LEDGER_FILENAME
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = b'{"event":"claim","flipped":1}\n'  # checksum now wrong
    path.write_bytes(b"".join(lines))

    with pytest.raises(LedgerError, match="corrupt"):
        RunLedger(tmp_path, specs)
    report = verify_ledger(tmp_path)
    assert not report["ok"]
    assert report["corrupt_lines"][0]["line"] == 2
    assert "CORRUPT" in format_verify_report(report)


def test_ledger_duplicate_done_records_are_idempotent(tmp_path):
    specs = _grid(1)
    with RunLedger(tmp_path, specs) as ledger:
        ledger.claim(specs[0])
        ledger.done(specs[0])
        ledger.done(specs[0])

    replay = replay_ledger(tmp_path / LEDGER_FILENAME)
    assert replay.states[specs[0].content_hash()] == "done"
    assert replay.done_records[specs[0].content_hash()] == 2
    report = verify_ledger(tmp_path)
    assert report["ok"]  # duplicates are harmless, not damage
    assert report["duplicate_done"] == {specs[0].content_hash(): 2}


def test_ledger_rejects_changed_grid(tmp_path):
    with RunLedger(tmp_path, _grid(3)):
        pass
    with pytest.raises(LedgerError, match="grid"):
        RunLedger(tmp_path, _grid(2))


def test_ledger_lease_expiry_and_dead_owner_reclaim(tmp_path, monkeypatch):
    specs = _grid(1)
    cell = specs[0].content_hash()
    path = tmp_path / LEDGER_FILENAME

    def write_claim(pid, at, lease_s=900.0):
        import socket
        with open(path, "ab") as handle:
            handle.write(encode_record({
                "event": "claim", "cell": cell, "label": specs[0].label(),
                "pid": pid, "host": socket.gethostname(),
                "lease_s": lease_s, "at": at,
            }))

    with RunLedger(tmp_path, specs):
        pass
    import repro.campaign.durable as durable
    now = durable.wall_clock()

    # a live foreign owner with an unexpired lease blocks the cell ...
    write_claim(pid=os.getppid(), at=now)
    ledger = RunLedger(tmp_path, specs)
    assert ledger.claim_disposition(cell) == "live"
    ledger.close()
    # ... until the lease expires ...
    monkeypatch.setattr(durable, "wall_clock", lambda: now + 901.0)
    ledger = RunLedger(tmp_path, specs)
    assert ledger.claim_disposition(cell) == "reclaim"
    ledger.close()
    monkeypatch.undo()
    # ... and a dead owner on this host is reclaimed immediately
    write_claim(pid=2 ** 22 - 17, at=durable.wall_clock())
    ledger = RunLedger(tmp_path, specs)
    assert ledger.claim_disposition(cell) == "reclaim"
    ledger.close()
    # our own pid is never "another campaign" (same-process resume)
    write_claim(pid=os.getpid(), at=durable.wall_clock())
    ledger = RunLedger(tmp_path, specs)
    assert ledger.claim_disposition(cell) == "reclaim"
    ledger.close()


def test_nan_lease_is_a_config_error(tmp_path, capsys):
    """A NaN lease never expires (``age >= nan`` is false) and journals as
    ``NaN``, which is not JSON: the ledger refuses it, and both CLIs that
    take ``--lease-s`` report it as one ``error:`` line with exit 2."""
    from repro.fleet.__main__ import main as fleet_cli

    with pytest.raises(ConfigError, match="lease_s"):
        RunLedger(tmp_path / "direct", _grid(1), lease_s=float("nan"))
    assert campaign_cli(["smoke-grid", "--ledger", str(tmp_path / "smoke"),
                         "--lease-s", "nan"]) == 2
    assert fleet_cli(["run", "--drives", "2", "--n-requests", "30",
                      "--user-pages", "1200", "--queue-depth", "8",
                      "--ledger", str(tmp_path / "fleet"),
                      "--lease-s", "nan"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert errors == ["error: lease_s must be positive, got nan"] * 2


def test_live_foreign_claim_refuses_concurrent_run(tmp_path):
    specs = _grid(1)
    with RunLedger(tmp_path, specs):
        pass
    import socket
    with open(tmp_path / LEDGER_FILENAME, "ab") as handle:
        handle.write(encode_record({
            "event": "claim", "cell": specs[0].content_hash(),
            "label": specs[0].label(), "pid": os.getppid(),
            "host": socket.gethostname(), "lease_s": 900.0,
            "at": __import__("repro.campaign.durable",
                             fromlist=["wall_clock"]).wall_clock(),
        }))
    with pytest.raises(LedgerError, match="live campaign"):
        run_specs(specs, ledger_dir=tmp_path)


# --- crash-safe cache ---------------------------------------------------------------


def test_cache_put_is_atomic_and_leaves_no_temp_files(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    cache.put(spec, execute(spec))
    assert cache.get(spec) == execute(spec)
    assert not list(tmp_path.glob(".*tmp"))


def test_cache_quarantines_corrupt_entry_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    path = cache.put(spec, execute(spec))
    text = path.read_text()
    path.write_text(text[: len(text) // 2])  # torn entry on disk

    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert cache.get(spec) is None
    assert not path.exists()
    assert (cache.quarantine_root / path.name).exists()
    # a quarantined entry never poisons a later get
    assert cache.get(spec) is None


def test_cache_checksum_mismatch_detected(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    path = cache.put(spec, execute(spec))
    entry = json.loads(path.read_text())
    entry["result"]["metrics"]["page_reads"] += 1  # silent bit-rot
    path.write_text(json.dumps(entry))

    ok, bad = cache.verify()
    assert (ok, len(bad)) == (0, 1)
    assert "checksum" in bad[0][1]
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert cache.get(spec) is None


def test_cache_entries_without_checksum_still_load(tmp_path):
    # entries written before the checksum envelope must stay readable
    cache = ResultCache(tmp_path)
    spec = _spec()
    result = execute(spec)
    entry = json.loads(dump_entry(spec, result))
    entry.pop("checksum")
    cache.path_for(spec).write_text(json.dumps(entry))
    assert cache.get(spec) == result


def test_cache_torn_write_hook_tears_the_write(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    cache.torn_write_hook = lambda s, text: 0.5
    path = cache.put(spec, execute(spec))
    cache.torn_write_hook = None
    assert path.exists()
    with pytest.warns(RuntimeWarning):
        assert cache.get(spec) is None  # quarantined, recomputable


# --- durable run/resume -------------------------------------------------------------


def test_durable_run_resumes_without_recomputation(tmp_path):
    specs = _grid(3)
    baseline = run_specs(specs, jobs=1)

    first = CampaignStats()
    run_specs(specs, ledger_dir=tmp_path / "led", progress=first)
    assert (first.executed, first.cached) == (3, 0)

    second = CampaignStats()
    resumed = run_specs(specs, ledger_dir=tmp_path / "led", progress=second)
    assert (second.executed, second.cached) == (0, 3)  # zero recomputation
    assert _dicts(resumed) == _dicts(baseline)  # bit-identical results


def test_durable_run_heals_lost_cache_entry(tmp_path):
    specs = _grid(2)
    run_specs(specs, ledger_dir=tmp_path)
    # the ledger says done, but the entry is gone (disk cleanup, quarantine)
    ResultCache(tmp_path / "cache").wipe()
    stats = CampaignStats()
    resumed = run_specs(specs, ledger_dir=tmp_path, progress=stats)
    assert stats.executed == 2  # recomputed, not trusted blindly
    assert _dicts(resumed) == _dicts(run_specs(specs, jobs=1))


def test_durable_run_replays_recorded_failures(tmp_path):
    good = _spec()
    bad = _spec(policy="RiFSSD", fault_plan=CRASH)
    first = run_specs([good, bad], jobs=2, max_cell_retries=0,
                      on_failure="record", ledger_dir=tmp_path)
    assert isinstance(first[bad], CellFailure)

    stats = CampaignStats()
    second = run_specs([good, bad], jobs=1, on_failure="record",
                       ledger_dir=tmp_path, progress=stats)
    assert stats.executed == 0  # the failure replays from the ledger too
    assert second[bad].to_dict() == first[bad].to_dict()
    assert second[good] == first[good]
    # failures are never cached — only journaled
    assert len(ResultCache(tmp_path / "cache")) == 1


def test_durable_run_raise_mode_retries_failed_cells(tmp_path):
    from repro.errors import CampaignExecutionError

    bad = _spec(policy="RiFSSD", fault_plan=CRASH)
    first = run_specs([bad], jobs=1, on_failure="record",
                      ledger_dir=tmp_path)
    assert isinstance(first[bad], CellFailure)
    # record-mode resume replays the journaled failure; raise-mode must
    # instead re-run the cell — and hit the same deterministic crash
    with pytest.raises(CampaignExecutionError):
        run_specs([bad], jobs=1, on_failure="raise", ledger_dir=tmp_path)


def test_interrupt_mid_campaign_then_resume_exactly(tmp_path):
    specs = _grid(4)
    baseline = run_specs(specs, jobs=1)

    class InterruptAfter(CampaignStats):
        def on_result(self, spec, result, elapsed_s, cached):
            super().on_result(spec, result, elapsed_s, cached)
            if self.completed == 2:
                raise KeyboardInterrupt

    with pytest.raises(CampaignInterrupted) as info:
        run_specs(specs, ledger_dir=tmp_path, progress=InterruptAfter())
    exc = info.value
    assert exc.completed is False
    assert len(exc.results) == 2  # partial results surface
    assert str(tmp_path) in exc.resume_hint

    class InterruptFresh(CampaignStats):
        def on_result(self, spec, result, elapsed_s, cached):
            super().on_result(spec, result, elapsed_s, cached)
            if not cached:
                raise KeyboardInterrupt

    # an interrupted resume counts the cells it executed, not the two it
    # replayed from the ledger
    with pytest.raises(CampaignInterrupted,
                       match="with 1 of 2 cells finished$"):
        run_specs(specs, ledger_dir=tmp_path, progress=InterruptFresh())

    stats = CampaignStats()
    resumed = run_specs(specs, ledger_dir=tmp_path, progress=stats)
    assert stats.executed == 1  # only the unfinished cell re-runs
    assert stats.cached == 3
    assert _dicts(resumed) == _dicts(baseline)


def test_interrupt_in_on_start_is_journaled_and_closes_ledger(
        tmp_path, monkeypatch):
    """A Ctrl-C that lands in ``progress.on_start``, before any cell runs,
    still ends a durable run cleanly: it surfaces as CampaignInterrupted,
    the journal gets its ``interrupt`` record and the ledger is closed."""
    closed = []
    close = RunLedger.close
    monkeypatch.setattr(RunLedger, "close",
                        lambda self: closed.append(close(self)))

    class InterruptOnStart(CampaignStats):
        def on_start(self, total):
            raise KeyboardInterrupt

    with pytest.raises(CampaignInterrupted,
                       match="with 0 of 2 cells finished$"):
        run_specs(_grid(2), ledger_dir=tmp_path,
                  progress=InterruptOnStart())
    assert closed == [None]
    events = [record["event"] for record, _ in map(
        decode_record, (tmp_path / LEDGER_FILENAME).read_bytes().splitlines())]
    assert events[-1] == "interrupt"


def test_sigterm_is_a_graceful_shutdown(tmp_path):
    specs = _grid(3)

    class TermAfter(CampaignStats):
        def on_result(self, spec, result, elapsed_s, cached):
            super().on_result(spec, result, elapsed_s, cached)
            if self.completed == 1:
                os.kill(os.getpid(), signal.SIGTERM)

    with pytest.raises(CampaignInterrupted, match="signal"):
        run_specs(specs, ledger_dir=tmp_path, progress=TermAfter())
    # the handler was restored on exit
    assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL
    stats = CampaignStats()
    run_specs(specs, ledger_dir=tmp_path, progress=stats)
    assert stats.executed == 2 and stats.cached == 1


def test_deliver_termination_noop_off_main_thread():
    import threading
    seen = []

    def body():
        with deliver_termination_as_interrupt():
            seen.append(signal.getsignal(signal.SIGTERM))

    before = signal.getsignal(signal.SIGTERM)
    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    assert seen == [before]  # untouched: no handler swap off-main-thread


# --- campaign fault driver ----------------------------------------------------------


def test_campaign_fault_driver_windows_and_validation():
    driver = CampaignFaultDriver(FaultPlan(faults=(
        FaultSpec(kind="torn_cache_write", start_read=1, count=1,
                  magnitude=0.25),
        FaultSpec(kind="campaign_kill", start_read=3, count=1),
    )))
    assert driver.torn_fraction(0) is None
    assert driver.torn_fraction(1) == 0.25
    assert driver.torn_fraction(1) is None  # count=1: fires once
    assert driver.kill_window(2) is None
    assert driver.kill_window(3) == "post_ledger"  # magnitude 1.0 default
    kill_pre = CampaignFaultDriver(FaultPlan(faults=(
        FaultSpec(kind="campaign_kill", start_read=0, count=1,
                  magnitude=0.0),)))
    assert kill_pre.kill_window(0) == "pre_ledger"
    with pytest.raises(ConfigError, match="campaign_faults"):
        CampaignFaultDriver(FaultPlan(faults=(
            FaultSpec(kind="transient_sense"),)))


def test_torn_cache_write_fault_recovers_on_resume(tmp_path):
    specs = _grid(3)
    torn = FaultPlan(faults=(
        FaultSpec(kind="torn_cache_write", start_read=1, count=1,
                  magnitude=0.5),))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        first = run_specs(specs, ledger_dir=tmp_path, campaign_faults=torn)
        stats = CampaignStats()
        resumed = run_specs(specs, ledger_dir=tmp_path, progress=stats)
    assert stats.executed == 1  # exactly the torn cell recomputes
    assert _dicts(resumed) == _dicts(first)
    report = verify_ledger(tmp_path)
    assert report["ok"] and report["cache"]["quarantined"] == 1


def test_campaign_faults_require_ledger():
    with pytest.raises(ConfigError, match="ledger"):
        run_specs(_grid(1), campaign_faults=FaultPlan(faults=(
            FaultSpec(kind="campaign_kill"),)))


# --- verify-ledger CLI --------------------------------------------------------------


def test_verify_ledger_cli_clean_and_damaged(tmp_path, capsys):
    run_specs(_grid(2), ledger_dir=tmp_path)
    assert campaign_cli(["verify-ledger", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "status   OK" in out

    cache = ResultCache(tmp_path / "cache")
    entry = next(iter(sorted(cache.root.glob("*.json"))))
    entry.write_text(entry.read_text()[:100])  # injected torn write
    assert campaign_cli(["verify-ledger", str(tmp_path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["ok"]
    assert len(report["cache"]["corrupt"]) == 1
