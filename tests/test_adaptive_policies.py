"""History-driven adaptive retry policies (`repro.ssd.adaptive`).

Covers the level oracle, plan shapes for hit / cold / mispredict reads,
learned-state JSON round-trips (direct and through the campaign cache),
invalidation on retention fast-forward, and bit-identity of the adaptive
state machine between the serial and process-parallel executors (the
simulated outputs themselves are pinned by ``tests/test_golden.py``).
"""

import json

import pytest

from repro.campaign.spec import RunSpec, build_simulator, build_trace, execute
from repro.campaign import run_specs
from repro.config import EccConfig, NandTimings
from repro.errors import ConfigError
from repro.nand.retry_table import level_for_rber
from repro.ssd.ecc_model import ScriptedEccOutcomeModel
from repro.ssd.refresh import fast_forward
from repro.ssd.retry_policies import TAG_COR, TAG_UNCOR, make_policy
from repro.ssd.simulator import SimulationResult

from tests.plans import compile_plan

CAP = EccConfig().correction_capability

#: (policy name, policy kwargs) for the three adaptive policies; RVPSSD
#: calibrates at the cell's wear point via a scalar kwarg.
ADAPTIVE = [
    ("OVCSSD", {}),
    ("OCASSD", {}),
    ("RVPSSD", {"pe_cycles": 2000.0}),
]


def _policy(name, decode_script=None, **kwargs):
    model = ScriptedEccOutcomeModel(decode_script=decode_script)
    return make_policy(name, NandTimings(), model, **kwargs)


def _spec(policy, kwargs, n_requests=240, workload="Ali124", seed=7,
          refresh_days=120.0):
    return RunSpec(
        workload=workload, policy=policy, pe_cycles=2000.0, seed=seed,
        scale="small", n_requests=n_requests, policy_kwargs=kwargs,
        config_overrides={"reliability": {"refresh_days": refresh_days}},
    )


# --- the level oracle -----------------------------------------------------------


def test_level_zero_at_or_below_capability():
    assert level_for_rber(0.0, CAP) == 0
    assert level_for_rber(CAP, CAP) == 0


def test_level_doubles_per_step():
    # each retry level covers one doubling of RBER past the capability
    assert level_for_rber(CAP * 1.01, CAP) == 1
    assert level_for_rber(CAP * 2.5, CAP) == 2
    assert level_for_rber(CAP * 4.0, CAP) == 3
    assert level_for_rber(CAP * 100.0, CAP) == 7


def test_level_clamps_to_n_steps():
    assert level_for_rber(CAP * 1e9, CAP) == 12
    assert level_for_rber(CAP * 4.0, CAP, n_steps=2) == 2


def test_level_validates_inputs():
    with pytest.raises(ConfigError):
        level_for_rber(-0.01, CAP)
    with pytest.raises(ConfigError):
        level_for_rber(float("nan"), CAP)
    with pytest.raises(ConfigError):
        level_for_rber(0.01, 0.0)
    with pytest.raises(ConfigError):
        level_for_rber(0.01, CAP, n_steps=0)


# --- plan shapes ----------------------------------------------------------------


def test_ovcssd_learns_block_level_then_hits():
    policy = _policy("OVCSSD", decode_script=[False])
    block = (0, 0, 0, 7)
    rber = CAP * 3.0  # level 2

    # cold read: conventional first round fails (scripted), reactive walk
    policy.begin_read(block, 10.0)
    plan = compile_plan(policy, rber)
    assert plan.retried
    assert policy.hits == 0 and policy.mispredicts == 0  # no prediction yet
    assert policy.export_state()["blocks"] == {"0/0/0/7": 2}

    # the next read of the same block starts at the learned level and
    # decodes in one near-optimal round
    policy.begin_read(block, 10.0)
    plan = compile_plan(policy, rber)
    assert not plan.retried
    assert len(plan.phases) == 2
    assert plan.phases[-1].tag == TAG_COR
    assert policy.hits == 1 and policy.mispredicts == 0


def test_ovcssd_mispredict_pays_deterministic_failed_round():
    policy = _policy("OVCSSD")
    block = (0, 0, 0, 3)
    policy.begin_read(block, 10.0)
    compile_plan(policy, CAP * 40.0)  # learns level 6

    # same block now reads clean: cached level 6 vs true level 0
    policy.begin_read(block, 10.0)
    plan = compile_plan(policy, CAP * 0.5)
    assert policy.mispredicts == 1
    assert plan.retried
    assert plan.uncorrectable_transfers >= 1
    first_xfer = plan.phases[1]
    assert first_xfer.tag == TAG_UNCOR
    # deterministic full failed-decode latency, no RNG draw
    assert first_xfer.decode_us == EccConfig().t_ecc_max
    assert plan.phases[-1].tag == TAG_COR


def test_ocassd_estimate_converges_to_observed_level():
    policy = _policy("OCASSD", alpha=0.5)
    rber = CAP * 8.0  # level 4
    policy.begin_read((0, 0, 0, 0), 5.0)
    compile_plan(policy, rber)  # cold: no prediction yet
    state = policy.export_state()
    assert state["observations"] == 1
    assert state["estimate"] == pytest.approx(2.0)  # 0 + 0.5 * (4 - 0)
    for _ in range(6):
        policy.begin_read((0, 0, 0, 0), 5.0)
        compile_plan(policy, rber)
    assert policy.export_state()["estimate"] == pytest.approx(4.0, abs=0.1)
    assert policy.hits >= 1


def test_rvpssd_thresholds_monotone_and_age_drives_prediction():
    policy = _policy("RVPSSD", pe_cycles=2000.0)
    thresholds = policy.export_state()["thresholds"]
    assert thresholds
    assert thresholds == sorted(thresholds)
    # a fresh page predicts the default voltages, an ancient one does not
    policy.begin_read((0, 0, 0, 0), 0.0)
    assert policy._predicted_level() == 0
    policy.begin_read((0, 0, 0, 0), 3650.0)
    assert policy._predicted_level() >= 1


def test_rvpssd_accurate_prediction_decodes_in_one_round():
    policy = _policy("RVPSSD", pe_cycles=2000.0, tolerance=0)
    thresholds = policy.export_state()["thresholds"]
    if len(thresholds) < 3:
        pytest.skip("calibration found fewer than 3 reachable levels")
    # a retention age squarely inside level 2, with an RBER to match
    age = 0.5 * (thresholds[1] + thresholds[2])
    policy.begin_read((1, 0, 0, 0), age)
    plan = compile_plan(policy, CAP * 3.0)  # true level 2
    assert not plan.retried
    assert len(plan.phases) == 2
    assert policy.hits == 1


def test_adaptive_policies_validate_kwargs():
    with pytest.raises(ConfigError):
        _policy("OVCSSD", tolerance=-1)
    with pytest.raises(ConfigError):
        _policy("OCASSD", alpha=0.0)
    with pytest.raises(ConfigError):
        _policy("RVPSSD", pe_cycles=-5.0)


# --- learned-state serialization -------------------------------------------------


@pytest.mark.parametrize("policy,kwargs", ADAPTIVE)
def test_learned_state_json_round_trip(policy, kwargs):
    result = execute(_spec(policy, kwargs, n_requests=120))
    state = result.metrics.adaptive_state
    assert state is not None
    assert state["policy"] == policy
    assert state["hits"] == result.metrics.adaptive_hits
    assert state["mispredicts"] == result.metrics.adaptive_mispredicts

    data = json.loads(json.dumps(result.to_dict()))
    restored = SimulationResult.from_dict(data)
    assert restored.to_dict() == result.to_dict()
    assert restored.metrics.adaptive_state == state
    # from_dict copies nested containers: mutating the restored state
    # must not reach back into the source dict
    restored.metrics.adaptive_state["version"] = 999
    assert data["metrics"]["adaptive_state"]["version"] != 999


def test_adaptive_state_round_trips_through_campaign_cache(tmp_path):
    spec = _spec("OCASSD", {}, n_requests=120)
    first = run_specs([spec], cache=str(tmp_path))[spec]
    assert any(tmp_path.iterdir()), "campaign cache wrote nothing"
    second = run_specs([spec], cache=str(tmp_path))[spec]
    assert second.to_dict() == first.to_dict()
    assert second.metrics.adaptive_state == first.metrics.adaptive_state
    assert second.metrics.adaptive_state is not None


# --- fast-forward invalidation ---------------------------------------------------


def test_fast_forward_invalidates_learned_state_and_shifts_ages():
    spec = _spec("OVCSSD", {}, n_requests=120)
    ssd = build_simulator(spec)
    ssd.run_trace(build_trace(spec))
    policy = ssd.policy
    assert policy.export_state()["blocks"], "run learned nothing"
    version = policy.state_version
    age_before = ssd.sampler.cold_age_days(12345)
    disturb_before = ssd.sampler._wear.per_read
    pe_before = ssd.pe_cycles

    fast_forward(ssd, retention_days=30.0, pe_delta=500.0)

    assert policy.state_version == version + 1
    assert policy.export_state()["blocks"] == {}
    assert ssd.sampler.cold_age_days(12345) == age_before + 30.0
    assert ssd.pe_cycles == pe_before + 500.0
    assert ssd.sampler.pe_cycles == pe_before + 500.0
    # wear raises the read-disturb coefficient
    assert ssd.sampler._wear.per_read > disturb_before


def test_fast_forward_keeps_the_route_memo_valid():
    """A dispatch route is pure in ppn, so a run after a fast-forward is
    the same whether the memoized routes are kept or resolved afresh."""
    def run_after_fast_forward(flush):
        spec = _spec("OVCSSD", {}, n_requests=120)
        ssd = build_simulator(spec)
        trace = build_trace(spec)
        ssd.run_trace(trace)
        assert ssd._pipeline._routes, "the run memoized no dispatch routes"
        fast_forward(ssd, retention_days=5.0)
        if flush:
            ssd._pipeline._routes.clear()
        return ssd.run_trace(trace).to_dict()

    assert run_after_fast_forward(False) == run_after_fast_forward(True)


def test_fast_forward_validates_arguments():
    spec = _spec("OVCSSD", {}, n_requests=10)
    ssd = build_simulator(spec)
    with pytest.raises(ConfigError):
        fast_forward(ssd, retention_days=-1.0)
    with pytest.raises(ConfigError):
        fast_forward(ssd, pe_delta=-1.0)
    # zero jump is a no-op, not an error
    version = ssd.policy.state_version
    fast_forward(ssd)
    assert ssd.policy.state_version == version


def test_fast_forward_rejects_table_driven_reliability():
    spec = RunSpec(workload="Ali124", policy="SSDone", pe_cycles=1000.0,
                   seed=7, scale="small", n_requests=10,
                   reliability_mode="lut")
    ssd = build_simulator(spec)
    with pytest.raises(ConfigError, match="parametric"):
        fast_forward(ssd, retention_days=10.0)


def test_static_policies_ignore_fast_forward_state_hooks():
    spec = _spec("SSDone", {}, n_requests=10)
    ssd = build_simulator(spec)
    assert not ssd.policy.stateful
    assert ssd.policy.export_state() is None
    fast_forward(ssd, retention_days=10.0)  # must not raise
    assert ssd.policy.export_state() is None


# --- cross-executor bit-identity ------------------------------------


def test_serial_and_parallel_executors_identical():
    specs = [_spec(policy, kwargs, n_requests=100, workload="Sys1")
             for policy, kwargs in ADAPTIVE]
    serial = run_specs(specs, jobs=1)
    parallel = run_specs(specs, jobs=2)
    for spec in specs:
        assert serial[spec].to_dict() == parallel[spec].to_dict()
