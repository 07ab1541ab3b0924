"""Fleet-level acceptance invariants: metering never changes results,
rollups are the sums of the cells' SimMetrics, serial == parallel
aggregates, durable replays feed the fleet, and JSONL records rebuild the
same rollup."""

import json

from repro.campaign import JsonlProgress, RunSpec, run_specs
from repro.campaign.spec import build_trace, execute
from repro.fleet import comparable_rollup
from repro.obs.registry import FleetAggregator
from repro.obs.slo import default_slos, evaluate_fleet

N_REQUESTS = 80
SEED = 7


def _specs(policies=("SENC", "RiFSSD"), pe_points=(1000.0, 2000.0)):
    return [
        RunSpec(workload="Ali124", policy=policy, pe_cycles=pe,
                n_requests=N_REQUESTS, seed=SEED)
        for policy in policies
        for pe in pe_points
    ]


# --- metering is bit-identical ---------------------------------------------


def test_metered_run_is_bit_identical():
    """Snapshots + folding into a rollup must not perturb a single
    simulated number (exact ``to_dict`` equality, the acceptance bar)."""
    spec = RunSpec(workload="Ali124", policy="RiFSSD", pe_cycles=2000.0,
                   n_requests=N_REQUESTS, seed=SEED)
    trace = build_trace(spec)

    def run(metered):
        kwargs = {"snapshot_interval_us": 10_000.0} if metered else {}
        return execute(spec, trace, **kwargs)

    plain = run(metered=False)
    metered = run(metered=True)
    assert metered.to_dict() == plain.to_dict()
    # folding the metered result into a fleet is equally passive
    fleet = FleetAggregator()
    fleet.observe(spec, metered)
    assert metered.to_dict() == plain.to_dict()


# --- rollups are the sums of the cells' SimMetrics -------------------------


def test_fleet_rollup_reconciles_with_cell_totals():
    specs = _specs()
    fleet = FleetAggregator()
    results = run_specs(specs, fleet=fleet)
    assert fleet.cells == len(specs)
    assert fleet.failed == 0
    for policy in ("SENC", "RiFSSD"):
        cells = [results[s] for s in specs if s.policy == policy]
        assert fleet.total(policy, "page_reads") == \
            sum(r.metrics.page_reads for r in cells)
        assert fleet.total(policy, "retried_reads") == \
            sum(r.metrics.retried_reads for r in cells)
        hist = fleet.read_hist(policy)
        assert hist.count == sum(r.metrics.read_latency_hist.count
                                 for r in cells)
    summary = {row["policy"]: row for row in fleet.policy_summary()}
    assert summary["RiFSSD"]["cells"] == 2
    assert summary["RiFSSD"]["p999_us"] is not None


# --- serial == parallel ----------------------------------------------------


def test_serial_and_parallel_fleets_are_identical():
    specs = _specs()
    serial_fleet, parallel_fleet = FleetAggregator(), FleetAggregator()
    serial = run_specs(specs, jobs=1, fleet=serial_fleet)
    parallel = run_specs(specs, jobs=2, fleet=parallel_fleet)
    for spec in specs:
        assert serial[spec].to_dict() == parallel[spec].to_dict()
    assert serial_fleet.to_dict() == parallel_fleet.to_dict()
    # ... and therefore identical SLO verdicts
    slos = default_slos()
    assert [r.to_dict() for r in evaluate_fleet(serial_fleet, slos)] == \
        [r.to_dict() for r in evaluate_fleet(parallel_fleet, slos)]


# --- durable replay --------------------------------------------------------


def test_ledger_replay_feeds_the_fleet(tmp_path):
    specs = _specs(pe_points=(1000.0,))
    first_fleet = FleetAggregator()
    run_specs(specs, ledger_dir=tmp_path / "ledger", fleet=first_fleet)
    assert first_fleet.cached == 0

    replay_fleet = FleetAggregator()
    run_specs(specs, ledger_dir=tmp_path / "ledger", fleet=replay_fleet)
    assert replay_fleet.cached == len(specs)
    # replayed cells carry the same simulated counters and latency tails
    for field in ("page_reads", "total_senses", "uncorrectable_transfers"):
        for policy in first_fleet.policies():
            assert first_fleet.total(policy, field) == \
                replay_fleet.total(policy, field)
    for policy in first_fleet.policies():
        assert first_fleet.read_hist(policy).to_dict() == \
            replay_fleet.read_hist(policy).to_dict()


# --- round-trip -------------------------------------------------------------


def test_fleet_json_roundtrip():
    specs = _specs(pe_points=(1000.0,))
    fleet = FleetAggregator()
    run_specs(specs, fleet=fleet)
    # exact JSON round-trip (what `scrape --json` saves)
    back = FleetAggregator.from_dict(
        json.loads(json.dumps(fleet.to_dict())))
    assert back.to_dict() == fleet.to_dict()


# --- JSONL stream rebuilds the rollup --------------------------------------


def test_observe_record_rebuilds_rollup_from_telemetry(tmp_path):
    specs = _specs()
    log = tmp_path / "campaign.jsonl"
    direct = FleetAggregator()
    run_specs(specs, progress=JsonlProgress(log), fleet=direct)

    tailed = FleetAggregator()
    for line in log.read_text().splitlines():
        record = json.loads(line)
        if record.get("event") == "cell":
            tailed.observe_record(record)
    assert tailed.cells == direct.cells
    assert tailed.policies() == direct.policies()
    for policy in direct.policies():
        for field in ("page_reads", "degraded_reads",
                      "uncorrectable_transfers", "retried_reads"):
            assert tailed.total(policy, field) == direct.total(policy, field)
        # the sparse histogram in the record is lossless
        assert tailed.read_hist(policy).to_dict() == \
            direct.read_hist(policy).to_dict()
    # ... and so is every other family: the log rebuilds the whole rollup
    assert comparable_rollup(tailed.to_dict()) == \
        comparable_rollup(direct.to_dict())
