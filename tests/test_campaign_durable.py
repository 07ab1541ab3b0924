"""Durable campaign runtime: ledger replay, crash-safe cache, resume.

The contract under test (ISSUE acceptance criteria): a campaign killed at
any instant resumes from its write-ahead ledger to a result *exactly*
equal to an uninterrupted run, with completed cells never re-executed;
damaged storage (torn journal tail, corrupt cache entries) is recovered
or quarantined, never silently trusted and never a crash.
"""

import json
import multiprocessing
import os
import signal
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.campaign.cache import LOG_FILENAME
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
    with RunLedger(tmp_path, specs) as reopened:
        assert reopened.recovered_bytes == 0


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
    """A NaN or infinite lease never expires (``age >= lease_s`` stays
    false) and journals as ``NaN``/``Infinity``, which is not JSON: the
    ledger and ``run_specs`` refuse it, with or without a ledger and before
    any ledger line is written, and both CLIs that take ``--lease-s``
    report it as one ``error:`` line with exit 2."""
    from repro.fleet.__main__ import main as fleet_cli

    fleet = ["run", "--drives", "2", "--n-requests", "30",
             "--user-pages", "1200", "--queue-depth", "8"]
    for bad in ("nan", "inf"):
        with pytest.raises(ConfigError, match="lease_s"):
            RunLedger(tmp_path / "direct", _grid(1), lease_s=float(bad))
        with pytest.raises(ConfigError, match="lease_s"):
            run_specs(_grid(1), lease_s=float(bad))
        assert campaign_cli(["smoke-grid", "--ledger",
                             str(tmp_path / f"smoke-{bad}"),
                             "--lease-s", bad]) == 2
        assert fleet_cli(fleet + ["--lease-s", bad]) == 2
        assert fleet_cli(fleet + ["--ledger", str(tmp_path / f"fleet-{bad}"),
                                  "--lease-s", bad]) == 2
        errors = capsys.readouterr().err.splitlines()
        assert errors == [
            f"error: lease_s must be positive and finite, got {bad}"] * 3
        # smoke-grid always runs under a ledger: without one, argparse
        # refuses the command before any lease is read
        with pytest.raises(SystemExit) as exited:
            campaign_cli(["smoke-grid", "--lease-s", bad])
        assert exited.value.code == 2
        assert "required: --ledger" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cache_or_ledger_path_that_is_a_file_is_a_config_error(tmp_path,
                                                               capsys):
    """A ``--cache`` or ``--ledger`` path that is a regular file is one
    ``error:`` line with exit 2 from every CLI that takes one, never a
    traceback; ``ResultCache`` and ``RunLedger`` raise ``ConfigError``."""
    from repro.experiments.runner import main as experiments_cli
    from repro.fleet.__main__ import main as fleet_cli

    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    for path in (afile, afile / "below"):
        with pytest.raises(ConfigError, match="not a directory"):
            ResultCache(path)
        with pytest.raises(ConfigError, match="not a directory"):
            RunLedger(path, _grid(1))
    commands = [
        (fleet_cli, ["run", "--drives", "2", "--n-requests", "30",
                     "--user-pages", "1200", "--queue-depth", "8",
                     "--cache", str(afile)]),
        (experiments_cli, ["fig6", "--cache", str(afile)]),
        (campaign_cli, ["smoke-grid", "--ledger", str(afile),
                        "--out", str(tmp_path / "x.json")]),
        (campaign_cli, ["verify-ledger", str(afile)]),
        (campaign_cli, ["verify-ledger", str(tmp_path), "--cache",
                        str(afile)]),
    ]
    for cli, argv in commands:
        assert cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == f"error: {afile} is not a directory\n", argv
    assert not (tmp_path / "x.json").exists()


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


def _fsyncs(monkeypatch):
    """Record the inode of every file ``os.fsync`` is called on."""
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        real_fsync(fd)
        synced.append(os.fstat(fd).st_ino)

    monkeypatch.setattr(os, "fsync", fsync)
    return synced


def test_cache_put_is_atomic_and_leaves_no_temp_files(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    spec = _spec()
    synced = _fsyncs(monkeypatch)
    cache.put(spec, execute(spec))
    # one record, appended to the one log and fsync'd before put returned
    assert synced == [cache.path.stat().st_ino]
    assert cache.path.read_bytes() == dump_entry(spec, execute(spec))
    assert cache.get(spec) == execute(spec)
    assert [path.name for path in tmp_path.iterdir()] == [LOG_FILENAME]


def test_cache_quarantines_corrupt_entry_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    cache.put(spec, execute(spec))
    record = cache.path.read_bytes()
    cache.path.write_bytes(record[: len(record) // 2])  # torn record on disk

    with pytest.warns(RuntimeWarning, match="quarantined"):
        cache = ResultCache(tmp_path)
    assert cache.get(spec) is None
    assert cache.path.read_bytes() == b""  # the log rewritten without it
    moved = list((tmp_path / "quarantine").glob("*.rec"))
    assert [path.read_bytes() for path in moved] == [record[: len(record) // 2]]
    # a quarantined record never poisons a later get or put
    assert cache.get(spec) is None
    cache.put(spec, execute(spec))
    assert cache.get(spec) == execute(spec)


def test_cache_checksum_mismatch_detected(tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    cache.put(spec, execute(spec))
    cell, checksum, identity, body = cache.path.read_bytes().split(b"\t")
    result = json.loads(body)
    result["metrics"]["page_reads"] += 1  # silent bit-rot, checksum kept
    body = json.dumps(result, sort_keys=True, separators=(",", ":"))
    cache.path.write_bytes(
        b"\t".join((cell, checksum, identity, body.encode())) + b"\n")

    ok, bad = cache.verify()
    assert (ok, len(bad)) == (0, 1)
    assert "checksum" in bad[0][1]
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert cache.get(spec) is None


def test_cache_torn_write_hook_tears_the_write(tmp_path):
    cache = ResultCache(tmp_path)
    spec, other = _grid(2)
    record = dump_entry(spec, execute(spec))
    cache.torn_write_hook = lambda s, record: 0.5
    cache.put(spec, execute(spec))
    cache.torn_write_hook = None
    assert cache.path.read_bytes() == record[: len(record) // 2]
    assert cache.get(spec) is None  # never served, recomputable
    assert cache.verify()[0] == 0 and len(cache.verify()[1]) == 1
    cache.put(other, execute(other))  # ends the torn line first
    assert cache.path.read_bytes().split(b"\n")[1] + b"\n" == dump_entry(
        other, execute(other))
    assert cache.get(other) == execute(other)


@pytest.fixture(scope="module")
def two_cells():
    return [(spec, execute(spec)) for spec in _grid(2)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cache_record_torn_at_any_byte_is_never_served(two_cells, data):
    (spec, result), (other, other_result) = two_cells
    record = dump_entry(spec, result)
    kept = data.draw(st.integers(1, len(record) - 1), label="bytes kept")
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        cache.torn_write_hook = lambda s, r: (kept + 0.5) / len(r)
        cache.put(spec, result)
        cache.torn_write_hook = None
        assert cache.path.read_bytes() == record[:kept]
        assert cache.get(spec) is None and spec not in cache
        ok, bad = cache.verify()
        assert (ok, [offset for offset, _ in bad]) == (0, ["byte 0"])
        cache.put(other, other_result)
        torn, own, end = cache.path.read_bytes().split(b"\n")
        assert (torn, own + b"\n", end) == (
            record[:kept], dump_entry(other, other_result), b"")
        assert cache.get(other) == other_result
        # only a record that lost no more than its newline is whole again
        whole = kept == len(record) - 1
        assert cache.get(spec) == (result if whole else None)
        assert len(cache.verify()[1]) == (0 if whole else 1)


def test_cache_flipped_byte_mid_file_is_quarantined_on_open(tmp_path):
    specs = _grid(3)
    first = run_specs(specs, cache=tmp_path)
    log = tmp_path / LOG_FILENAME
    data = bytearray(log.read_bytes())
    second_end = data.index(b"\n", data.index(b"\n") + 1)
    data[second_end - 40] ^= 1  # bit-rot inside the middle record
    log.write_bytes(bytes(data))

    stats = CampaignStats()
    with pytest.warns(RuntimeWarning, match="quarantined"):
        again = run_specs(specs, cache=tmp_path, progress=stats)
    assert (stats.executed, stats.cached) == (1, 2)
    assert _dicts(again) == _dicts(first)
    assert len(list((tmp_path / "quarantine").glob("*.rec"))) == 1
    assert ResultCache(tmp_path).verify() == (3, [])


def test_two_caches_on_one_directory_see_each_others_puts(tmp_path):
    one, two = ResultCache(tmp_path), ResultCache(tmp_path)
    (a, result_a), (b, result_b) = [(spec, execute(spec)) for spec in _grid(2)]
    one.put(a, result_a)
    assert two.get(a) == result_a and a in two and len(two) == 1
    two.put(b, result_b)
    assert one.get(b) == result_b and len(one) == 2


def _append_records(root, result, seeds):
    cache = ResultCache(root)
    for seed in seeds:
        cache.put(_spec(seed=seed), result)


def test_concurrent_appenders_lose_no_record(tmp_path):
    """Four processes, more than CI's cores, append to one log at once:
    every record lands whole, and one cache serves all of them."""
    result = execute(_spec())
    context = multiprocessing.get_context("spawn")
    workers = [context.Process(target=_append_records,
                               args=(tmp_path, result,
                                     range(start, start + 30)))
               for start in range(0, 120, 30)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
        assert not worker.is_alive() and worker.exitcode == 0
    cache = ResultCache(tmp_path)
    assert cache.verify() == (120, [])
    assert all(cache.get(_spec(seed=seed)) == result for seed in range(120))


def test_cache_fsync_precedes_each_done_record(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path / "cache")
    log = cache.path.stat().st_ino
    order = []
    real_fsync, real_done = os.fsync, RunLedger.done

    def fsync(fd):
        real_fsync(fd)
        if os.fstat(fd).st_ino == log:
            order.append("cache fsync")

    def done(self, spec):
        order.append("done")
        real_done(self, spec)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(RunLedger, "done", done)
    run_specs(_grid(3), cache=cache, ledger_dir=tmp_path)
    assert order == ["cache fsync", "done"] * 3


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


def test_verify_ledger_without_a_journal_is_a_config_error(tmp_path, capsys):
    """A mistyped or empty ledger directory is ``error: no ledger journal
    at DIR/ledger.jsonl`` with exit 2, never a clean report, and the check
    creates nothing."""
    missing = tmp_path / "no_such_dir"
    empty = tmp_path / "empty"
    empty.mkdir()
    for directory in (missing, empty):
        journal = directory / LEDGER_FILENAME
        with pytest.raises(ConfigError, match="no ledger journal"):
            verify_ledger(directory)
        assert campaign_cli(["verify-ledger", str(directory)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no ledger journal at {journal}\n"
    assert not missing.exists()
    assert list(empty.iterdir()) == []


def test_verify_ledger_cli_clean_and_damaged(tmp_path, capsys):
    run_specs(_grid(2), ledger_dir=tmp_path)
    assert campaign_cli(["verify-ledger", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "status   OK" in out

    log = tmp_path / "cache" / LOG_FILENAME
    data = log.read_bytes()
    log.write_bytes(data[: data.index(b"\n") + 100])  # injected torn write
    assert campaign_cli(["verify-ledger", str(tmp_path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["ok"]
    assert len(report["cache"]["corrupt"]) == 1
    # the resume quarantines the torn record and recomputes its cell
    with pytest.warns(RuntimeWarning, match="quarantined"):
        run_specs(_grid(2), ledger_dir=tmp_path)
    assert campaign_cli(["verify-ledger", str(tmp_path)]) == 0
    assert "1 quarantined" in capsys.readouterr().out
