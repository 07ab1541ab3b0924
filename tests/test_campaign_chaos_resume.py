"""Crash-recovery chaos family: SIGKILL the campaign, resume, compare.

Each scenario runs the fixed ``python -m repro.campaign smoke-grid`` grid
in a subprocess with a ``campaign_kill`` fault scheduled at a randomized
(seeded) completed-cell index, confirms the process died by SIGKILL, then
resumes from the ledger in a fresh process and asserts the final results
are *exactly* equal to an uninterrupted reference run — with the already-
completed cells never re-executed.  The nastiest window (``pre``: after
the cache write, before the ledger's ``done`` record), a kill landing
right after a torn cache write, and a kill of a ``--jobs 2`` campaign
(whose pool workers must not outlive it) are all covered.
"""

import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys

import pytest

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Seeded scenario schedule: (kill-after index, kill window) pairs drawn
#: once — deterministic across runs, but not hand-picked.
_RNG = random.Random(0xC0FFEE)
KILL_SCENARIOS = sorted({
    (_RNG.randrange(0, 5), _RNG.choice(("pre", "post"))) for _ in range(4)
})


def _cli(*args):
    return [sys.executable, "-m", "repro.campaign", *args]


def _run_cli(*args):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.run(_cli(*args), capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted smoke-grid run: the ground truth every crashed-
    and-resumed campaign must reproduce bit-for-bit."""
    root = tmp_path_factory.mktemp("reference")
    out = root / "ref.json"
    proc = _run_cli("smoke-grid", "--ledger", str(root / "ledger"),
                    "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["executed"] == 6 and payload["cached"] == 0
    return payload


@pytest.mark.parametrize("kill_after,window", KILL_SCENARIOS)
def test_sigkill_then_resume_is_bit_identical(tmp_path, reference,
                                              kill_after, window):
    ledger = tmp_path / "ledger"
    crashed = _run_cli("smoke-grid", "--ledger", str(ledger),
                       "--kill-after", str(kill_after),
                       "--kill-window", window,
                       "--out", str(tmp_path / "never.json"))
    assert crashed.returncode == -signal.SIGKILL
    assert not (tmp_path / "never.json").exists()  # died before the end

    # the journal survived the kill in a resumable state
    fsck = _run_cli("verify-ledger", str(ledger))
    assert fsck.returncode == 0, fsck.stdout + fsck.stderr

    out = tmp_path / "resumed.json"
    resumed = _run_cli("smoke-grid", "--ledger", str(ledger),
                       "--out", str(out))
    assert resumed.returncode == 0, resumed.stderr
    payload = json.loads(out.read_text())
    assert payload["grid"] == reference["grid"]
    assert payload["cells"] == reference["cells"]  # exact to_dict equality
    # completed cells replayed, not re-executed: the kill fired right
    # after cell #kill_after finished, so at least kill_after+1 results
    # were already durable (the pre window persists the cache entry too)
    assert payload["cached"] >= kill_after + 1
    assert payload["executed"] + payload["cached"] == 6
    assert payload["executed"] <= 6 - (kill_after + 1)


def test_kill_after_torn_cache_write_recovers(tmp_path, reference):
    """The compound worst case: one cell's cache write is torn AND the
    campaign is SIGKILLed two cells later; resume must quarantine the torn
    entry, recompute exactly that cell, and still match the reference."""
    ledger = tmp_path / "ledger"
    crashed = _run_cli("smoke-grid", "--ledger", str(ledger),
                       "--torn-cell", "1", "--kill-after", "3",
                       "--kill-window", "post",
                       "--out", str(tmp_path / "never.json"))
    assert crashed.returncode == -signal.SIGKILL

    # fsck sees the injected torn write before recovery touches it
    fsck = _run_cli("verify-ledger", str(ledger), "--json")
    assert fsck.returncode == 1
    report = json.loads(fsck.stdout)
    assert len(report["cache"]["corrupt"]) == 1

    out = tmp_path / "resumed.json"
    resumed = _run_cli("smoke-grid", "--ledger", str(ledger),
                       "--out", str(out))
    assert resumed.returncode == 0, resumed.stderr
    payload = json.loads(out.read_text())
    assert payload["cells"] == reference["cells"]
    # cells 0,2,3 replay; 1 (torn) + 4,5 (never ran) recompute
    assert payload["cached"] == 3 and payload["executed"] == 3

    healed = _run_cli("verify-ledger", str(ledger), "--json")
    assert healed.returncode == 0
    assert json.loads(healed.stdout)["cache"]["quarantined"] == 1


def _cli_started_by(start_method, *args):
    """The campaign CLI with ``start_method`` as the process-wide default,
    which is what a ``--jobs N`` pool starts its workers with."""
    code = ("import multiprocessing, sys; "
            f"multiprocessing.set_start_method({start_method!r}); "
            "from repro.campaign.__main__ import main; "
            "sys.exit(main(sys.argv[1:]))")
    return [sys.executable, "-c", code, *args]


@pytest.mark.parametrize("start_method", [
    method for method in ("fork", "forkserver")
    if method in multiprocessing.get_all_start_methods()])
def test_sigkilled_pool_campaign_leaves_no_workers(tmp_path, reference,
                                                   start_method):
    """SIGKILL a ``--jobs 2`` campaign: its pool workers must exit with it.
    An orphaned worker keeps the caller's stdout/stderr (and the ledger's
    append handle) open, so a caller reading the pipes never sees EOF.
    Under forkserver the workers' parent is the forkserver, which exits
    with the campaign.  The kill runs in its own session, which teardown
    reaps either way."""
    ledger = tmp_path / "ledger"
    proc = subprocess.Popen(
        _cli_started_by(start_method, "smoke-grid", "--ledger", str(ledger),
                        "--jobs", "2", "--kill-after", "2",
                        "--out", str(tmp_path / "never.json")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=REPO_SRC), start_new_session=True,
    )
    try:
        assert proc.wait(timeout=120) == -signal.SIGKILL
        try:
            proc.communicate(timeout=10)  # EOF: every pipe holder is gone
        except subprocess.TimeoutExpired:
            pytest.fail("pool workers outlived the SIGKILLed campaign")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()

    out = tmp_path / "resumed.json"
    resumed = _run_cli("smoke-grid", "--ledger", str(ledger), "--jobs", "2",
                       "--out", str(out))
    assert resumed.returncode == 0, resumed.stderr
    assert json.loads(out.read_text())["cells"] == reference["cells"]
