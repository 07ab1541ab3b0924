"""Fleet-level acceptance invariants: metering never changes results,
rollups reconcile with SimMetrics, serial == parallel aggregates, durable
replays feed the fleet, and JSONL records rebuild the same rollup."""

import json

from repro.campaign import JsonlProgress, RunSpec, run_specs
from repro.campaign.spec import build_trace, execute
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
    """Snapshots + scrape must not perturb a single simulated number
    (exact ``to_dict`` equality, the acceptance bar)."""
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


# --- rollups reconcile with SimMetrics -------------------------------------


def test_fleet_rollup_reconciles_with_cell_totals():
    specs = _specs()
    fleet = FleetAggregator()
    results = run_specs(specs, fleet=fleet)
    assert fleet.cells == len(specs)
    assert fleet.failed == 0
    reg = fleet.registry
    for policy in ("SENC", "RiFSSD"):
        cells = [results[s] for s in specs if s.policy == policy]
        assert reg.value("ssd_page_reads_total", policy=policy) == \
            sum(r.metrics.page_reads for r in cells)
        assert reg.value("ssd_retries_total", policy=policy,
                         hop="controller") == \
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
    first, replay = first_fleet.registry, replay_fleet.registry
    for name in ("ssd_page_reads_total", "ssd_senses_total",
                 "ssd_uncorrectable_transfers_total"):
        for policy in first_fleet.policies():
            assert first.value(name, policy=policy) == \
                replay.value(name, policy=policy)
    for policy in first_fleet.policies():
        assert first_fleet.read_hist(policy).to_dict() == \
            replay_fleet.read_hist(policy).to_dict()


# --- fleet merge and round-trip --------------------------------------------


def test_fleet_merge_and_json_roundtrip():
    specs = _specs(pe_points=(1000.0,))
    left, right, whole = (FleetAggregator() for _ in range(3))
    results = run_specs(specs, fleet=whole)
    left.observe(specs[0], results[specs[0]])
    right.observe(specs[1], results[specs[1]])
    left.merge(right)
    assert left.cells == whole.cells
    assert left.registry.to_dict() == whole.registry.to_dict()
    # exact JSON round-trip (what `scrape --json` ships between workers)
    back = FleetAggregator.from_dict(
        json.loads(json.dumps(whole.to_dict())))
    assert back.to_dict() == whole.to_dict()


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
        for name in ("ssd_page_reads_total", "ssd_degraded_reads_total",
                     "ssd_uncorrectable_transfers_total"):
            assert tailed.registry.value(name, policy=policy) == \
                direct.registry.value(name, policy=policy)
        assert tailed.registry.value("ssd_retries_total", policy=policy,
                                     hop="controller") == \
            direct.registry.value("ssd_retries_total", policy=policy,
                                  hop="controller")
        # the sparse histogram in the record is lossless
        assert tailed.read_hist(policy).to_dict() == \
            direct.read_hist(policy).to_dict()
