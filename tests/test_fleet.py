"""Fleet service: population determinism, rollup bit-identity, resume.

The acceptance bar (ISSUE): a ~1000-drive fleet produces rollups
bit-identical between serial and ``--jobs N`` execution, and resumes
from its ledger after a SIGKILL with identical final rollups.  The
population layer's own contract — a :class:`FleetSpec` is a pure,
content-hashed description whose expansion is independent of population
size — is what makes both properties testable at all.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.fleet import (
    DriveSpec,
    FleetSpec,
    comparable_rollup,
    fleet_specs,
    generate_drive,
    generate_population,
    run_fleet,
)
from repro.workloads import WORKLOADS

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Small-but-real per-drive sizing: a few milliseconds per drive.
TINY = dict(n_requests=12, user_pages=600, queue_depth=4)


def _fleet(n_drives=8, **overrides) -> FleetSpec:
    base = dict(n_drives=n_drives, seed=11, policies=("SENC", "RiFSSD"),
                fault_rate=0.5, **TINY)
    base.update(overrides)
    return FleetSpec(**base)


# --- population generation ----------------------------------------------------------


def test_population_is_deterministic_and_hashed():
    fleet = _fleet()
    again = FleetSpec.from_dict(json.loads(json.dumps(fleet.to_dict())))
    assert again == fleet
    assert again.content_hash() == fleet.content_hash()
    assert generate_population(fleet) == generate_population(again)
    assert fleet.content_hash() != _fleet(seed=12).content_hash()
    assert fleet.content_hash() != _fleet(fault_rate=0.25).content_hash()


def test_population_prefix_stable_under_growth():
    """Growing a fleet must not reshuffle existing drives: drive k is a
    pure function of (seed, k), independent of n_drives."""
    small = generate_population(_fleet(n_drives=4))
    grown = generate_population(_fleet(n_drives=16))
    assert grown[:4] == small


def test_drives_are_heterogeneous_and_unique():
    fleet = _fleet(n_drives=24, temp_c_range=(25.0, 60.0), fault_rate=1.0)
    drives = generate_population(fleet)
    assert len({d.seed for d in drives}) == 24          # unique sim seeds
    assert len({d.pe_cycles for d in drives}) == 24     # continuous draws
    assert {d.policy for d in drives} == {"SENC", "RiFSSD"}
    # round-robin pairing: both policies get exactly half the fleet
    assert sum(d.policy == "SENC" for d in drives) == 12
    for d in drives:
        assert d.workload in WORKLOADS
        assert fleet.pe_cycles_range[0] <= d.pe_cycles <= fleet.pe_cycles_range[1]
        assert 5.0 <= d.retention_days <= 90.0
        assert 25.0 <= d.temp_c <= 60.0
        assert isinstance(d.fault_plan, FaultPlan)      # fault_rate=1.0
    sober = generate_population(_fleet(n_drives=8, fault_rate=0.0))
    assert all(d.fault_plan is None for d in sober)
    assert all(d.temp_c is None for d in sober)


def test_drive_spec_roundtrip_including_fault_plan():
    fleet = _fleet(fault_rate=1.0, temp_c_range=(25.0, 60.0))
    for drive in generate_population(fleet):
        again = DriveSpec.from_dict(json.loads(json.dumps(drive.to_dict())))
        assert again == drive


def test_drive_maps_onto_campaign_cell():
    drive = generate_drive(_fleet(temp_c_range=(25.0, 60.0)), 3)
    spec = drive.to_run_spec()
    assert spec.workload == drive.workload
    assert spec.policy == drive.policy
    assert spec.pe_cycles == drive.pe_cycles
    assert spec.seed == drive.seed
    assert spec.operating_temp_c == drive.temp_c
    assert (spec.to_dict()["config_overrides"]["reliability"]["refresh_days"]
            == drive.retention_days)
    # unique seeds guarantee unique campaign cells: no silent collapsing
    specs = fleet_specs(_fleet(n_drives=16))
    assert len({s.content_hash() for s in specs}) == 16


def test_population_validation():
    with pytest.raises(ConfigError, match="n_drives"):
        FleetSpec(n_drives=0)
    with pytest.raises(ConfigError, match="unknown workload"):
        FleetSpec(n_drives=1, workload_mix=[("NotATrace", 1.0)])
    with pytest.raises(ConfigError, match="weight"):
        FleetSpec(n_drives=1, workload_mix=[("Ali124", 0.0)])
    with pytest.raises(ConfigError, match="fault_rate"):
        FleetSpec(n_drives=1, fault_rate=1.5)
    with pytest.raises(ConfigError, match="pe_cycles_range"):
        FleetSpec(n_drives=1, pe_cycles_range=(100.0, 50.0))
    with pytest.raises(ConfigError, match="at least one policy"):
        FleetSpec(n_drives=1, policies=())
    with pytest.raises(ConfigError, match="unknown FleetSpec"):
        FleetSpec.from_dict({"n_drives": 1, "warp_factor": 9})
    with pytest.raises(ConfigError, match="drive_id"):
        generate_drive(_fleet(n_drives=4), 4)


# --- fleet execution ----------------------------------------------------------------


def test_run_fleet_serial_vs_parallel_rollup_bit_identical():
    fleet = _fleet()
    serial = run_fleet(fleet)
    pooled = run_fleet(fleet, jobs=2)
    assert serial.rollup() == pooled.rollup()  # exact, including floats
    assert serial.executed == pooled.executed == fleet.n_drives
    assert sorted(serial.outcomes) == list(range(fleet.n_drives))
    assert not serial.failures()


def test_thousand_drive_fleet_rollup_bit_identical():
    """The ISSUE acceptance bar, shrunk per-drive but not per-fleet:
    1000 heterogeneous drives, serial vs pooled, exact rollup equality."""
    fleet = _fleet(n_drives=1000, fault_rate=0.2)
    serial = run_fleet(fleet)
    pooled = run_fleet(fleet, jobs=2)
    assert serial.rollup() == pooled.rollup()
    assert serial.aggregator.cells == 1000
    assert serial.to_payload()["fleet_hash"] == fleet.content_hash()


def test_comparable_rollup_masks_provenance_only(tmp_path):
    """A cache-replayed second run differs from a fresh run only in the
    ``cached`` counter; the comparable view must be bit-identical."""
    fleet = _fleet(n_drives=4)
    fresh = run_fleet(fleet, cache=tmp_path / "cache")
    replayed = run_fleet(fleet, cache=tmp_path / "cache")
    assert replayed.replayed == 4 and replayed.executed == 0
    assert fresh.rollup() != replayed.rollup()          # cached: 0 vs 4
    assert (comparable_rollup(fresh.rollup())
            == comparable_rollup(replayed.rollup()))
    assert "cached" not in fresh.comparable_rollup()
    assert "registry" in fresh.comparable_rollup()      # the actual state


# --- crash + resume through the CLI -------------------------------------------------


FLEET_ARGS = ("--drives", "8", "--seed", "11", "--policies", "SENC,RiFSSD",
              "--fault-rate", "0.5", "--n-requests", "30",
              "--user-pages", "1200", "--queue-depth", "8")


def _run_cli(*args):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.fleet", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_cli_sigkill_then_resume_rollup_bit_identical(tmp_path):
    reference = tmp_path / "reference.json"
    proc = _run_cli("run", *FLEET_ARGS, "--out", str(reference))
    assert proc.returncode == 0, proc.stderr

    ledger = tmp_path / "ledger"
    crashed = _run_cli("run", *FLEET_ARGS, "--ledger", str(ledger),
                       "--kill-after", "3",
                       "--out", str(tmp_path / "never.json"))
    assert crashed.returncode == -signal.SIGKILL
    assert not (tmp_path / "never.json").exists()

    resumed_out = tmp_path / "resumed.json"
    resumed = _run_cli("run", *FLEET_ARGS, "--ledger", str(ledger),
                       "--out", str(resumed_out))
    assert resumed.returncode == 0, resumed.stderr
    payload = json.loads(resumed_out.read_text())
    assert payload["replayed"] >= 4  # the kill fired after drive #3
    assert payload["executed"] + payload["replayed"] == 8

    ref = json.loads(reference.read_text())
    assert (comparable_rollup(payload["rollup"])
            == comparable_rollup(ref["rollup"]))
    diff = _run_cli("diff", str(resumed_out), str(reference))
    assert diff.returncode == 0, diff.stderr


def test_cli_durable_pool_run_shuts_down_cleanly(tmp_path):
    """Pool workers must not inherit the durable runtime's SIGTERM handler:
    terminating them at shutdown is routine, not a KeyboardInterrupt."""
    pop = tmp_path / "pop.json"
    gen = _run_cli("generate", "--drives", "6", "--seed", "11",
                   "--policies", "RiFSSD", "--n-requests", "30",
                   "--user-pages", "1200", "--queue-depth", "8",
                   "--out", str(pop))
    assert gen.returncode == 0, gen.stderr
    proc = _run_cli("run", "--spec", str(pop), "--jobs", "2",
                    "--ledger", str(tmp_path / "ledger"))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert "KeyboardInterrupt" not in proc.stderr, proc.stderr


def test_cli_generate_report_and_diff_divergence(tmp_path):
    pop = tmp_path / "pop.json"
    gen = _run_cli("generate", *FLEET_ARGS, "--out", str(pop))
    assert gen.returncode == 0, gen.stderr
    payload = json.loads(pop.read_text())
    assert len(payload["drives"]) == 8
    spec = FleetSpec.from_dict(payload["fleet"])
    assert payload["fleet_hash"] == spec.content_hash()
    assert ([DriveSpec.from_dict(d) for d in payload["drives"]]
            == generate_population(spec))

    # run from the generated spec file; report renders the saved rollup
    out = tmp_path / "run.json"
    run = _run_cli("run", "--spec", str(pop), "--out", str(out))
    assert run.returncode == 0, run.stderr
    report = _run_cli("report", str(out))
    assert report.returncode == 0, report.stderr
    assert "RiFSSD" in report.stdout and "SENC" in report.stdout

    # a different fleet diverges, and diff says so with exit 1
    other = tmp_path / "other.json"
    assert _run_cli("run", *FLEET_ARGS[:-1], "16",
                    "--out", str(other)).returncode == 0
    diff = _run_cli("diff", str(out), str(other))
    assert diff.returncode == 1
    assert "DIVERGENT" in diff.stderr
