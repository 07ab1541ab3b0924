"""Fault injection: deterministic plans, controller mitigation, degradation.

The contract under test (ISSUE acceptance criteria): two runs of the same
spec+plan produce byte-identical results, and every request either
completes or raises a typed ``ReproError`` — no silent drops, no hangs.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.campaign import RunSpec, execute
from repro.config import small_test_config
from repro.errors import (
    DegradedReadError,
    FaultInjectionError,
    RetryExhaustedError,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.nand.chip import FlashDie
from repro.nand.geometry import AddressMapper
from repro.ssd.ecc_model import ScriptedEccOutcomeModel
from repro.ssd.metrics import SimMetrics
from repro.ssd.resources import HostLink
from repro.ssd.simulator import SSDSimulator
from repro.units import KIB
from repro.workloads import generate
from repro.workloads.trace import IORequest

#: Same fast sizing the campaign tests use: tens of milliseconds per cell.
FAST = dict(n_requests=60, user_pages=2000, queue_depth=16)


def _spec(plan=None, **overrides) -> RunSpec:
    base = dict(workload="Ali124", policy="SWR", pe_cycles=1000.0, seed=3,
                fault_plan=plan, **FAST)
    base.update(overrides)
    return RunSpec(**base)


# --- plan validation and round-trips ------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(FaultInjectionError):
        FaultSpec(kind="meteor_strike")
    with pytest.raises(FaultInjectionError):
        FaultSpec(kind="transient_sense", period=0)
    with pytest.raises(FaultInjectionError):
        FaultSpec(kind="transient_sense", start_read=5, end_read=4)
    with pytest.raises(FaultInjectionError):
        FaultSpec(kind="transient_sense", start_us=10.0, end_us=5.0)
    with pytest.raises(FaultInjectionError):
        FaultSpec(kind="transient_sense", magnitude=-1.0)
    with pytest.raises(FaultInjectionError):
        FaultSpec(kind="ecc_saturation")  # unbounded window
    with pytest.raises(FaultInjectionError):
        FaultSpec(kind="die_offline", channel=0)  # no die
    with pytest.raises(FaultInjectionError):
        FaultSpec(kind="grown_bad_block")  # no block


def test_fault_plan_validation():
    with pytest.raises(FaultInjectionError):
        FaultPlan(max_retries=-1)
    with pytest.raises(FaultInjectionError):
        FaultPlan(retry_backoff_us=-1.0)
    with pytest.raises(FaultInjectionError):
        FaultPlan(on_degraded="panic")
    with pytest.raises(FaultInjectionError):
        FaultSpec.from_dict({"kind": "transient_sense", "bogus": 1})
    with pytest.raises(FaultInjectionError):
        FaultPlan.from_dict({"faults": [], "bogus": 1})


def test_fault_plan_dict_roundtrip():
    plan = FaultPlan(
        faults=(
            FaultSpec(kind="transient_sense", period=7, count=3, magnitude=2),
            FaultSpec(kind="die_offline", channel=1, die=2, start_read=40),
            FaultSpec(kind="ecc_saturation", channel=0, start_us=50.0,
                      end_us=120.0),
        ),
        max_retries=3, retry_backoff_us=2.5, on_degraded="raise",
    )
    again = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert again == plan
    # plans coerce dict-form faults too (what RunSpec.from_dict feeds them)
    assert FaultPlan(faults=tuple(f.to_dict() for f in plan.faults),
                     max_retries=3, retry_backoff_us=2.5,
                     on_degraded="raise") == plan


def test_plan_splits_simulator_and_worker_faults():
    plan = FaultPlan(faults=(
        FaultSpec(kind="transient_sense"),
        FaultSpec(kind="worker_crash"),
        FaultSpec(kind="worker_hang", magnitude=9.0),
    ))
    assert [f.kind for f in plan.simulator_faults()] == ["transient_sense"]
    assert [f.kind for f in plan.worker_faults()] == ["worker_crash",
                                                      "worker_hang"]


def test_plan_splits_campaign_faults():
    """The durable-runtime chaos kinds are their own family: consumed by
    the campaign process itself, never by a simulator or worker."""
    from repro.faults import CAMPAIGN_FAULT_KINDS

    assert CAMPAIGN_FAULT_KINDS == ("campaign_kill", "torn_cache_write")
    plan = FaultPlan(faults=(
        FaultSpec(kind="campaign_kill", start_read=2, count=1),
        FaultSpec(kind="torn_cache_write", start_read=1, magnitude=0.5),
        FaultSpec(kind="transient_sense"),
    ))
    assert [f.kind for f in plan.campaign_faults()] == [
        "campaign_kill", "torn_cache_write"]
    assert [f.kind for f in plan.simulator_faults()] == ["transient_sense"]
    assert not plan.worker_faults()
    # round-trips like every other plan
    again = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert again == plan


def test_torn_cache_write_magnitude_must_tear():
    # the default magnitude (1.0) would keep every byte — a silent no-op
    with pytest.raises(FaultInjectionError, match="magnitude"):
        FaultSpec(kind="torn_cache_write")
    assert FaultSpec(kind="torn_cache_write", magnitude=0.0).magnitude == 0.0


def test_spec_with_plan_hashes_and_roundtrips():
    bare = _spec()
    assert "fault_plan" not in bare.to_dict()  # pre-fault-plan hash stability
    plan = FaultPlan(faults=(FaultSpec(kind="transient_sense", period=5),))
    spec = _spec(plan)
    assert spec.content_hash() != bare.content_hash()
    again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    assert again.content_hash() == spec.content_hash()


# --- injector trigger evaluation ----------------------------------------------------


def test_injector_schedule_is_deterministic():
    plan = FaultPlan(faults=(
        FaultSpec(kind="transient_sense", start_read=1, period=3, count=2),
    ))
    block_key = (0, 0, 0, 0)  # (channel, die, plane, block)

    def firing_reads():
        injector = FaultInjector(plan)
        return [i for i in range(12)
                if injector.on_page_read(block_key, float(i)).sense_failures]

    first = firing_reads()
    assert first == firing_reads()  # pure function of the read sequence
    assert first == [1, 4]          # period 3 from start_read=1, count 2


def test_injector_address_predicate_and_windows():
    plan = FaultPlan(faults=(
        FaultSpec(kind="latency_spike", channel=1, die=2, magnitude=4.0,
                  start_us=10.0, end_us=20.0),
    ))
    injector = FaultInjector(plan)
    hit = (1, 2, 0, 0)   # (channel, die, plane, block)
    miss = (0, 2, 0, 0)
    assert injector.on_page_read(hit, 15.0).latency_scale == 4.0
    assert injector.on_page_read(miss, 15.0).latency_scale == 1.0
    assert injector.on_page_read(hit, 25.0).latency_scale == 1.0  # past window


# --- simulator-level injection and mitigation ---------------------------------------


def test_transient_sense_mitigated_by_bounded_retry():
    plan = FaultPlan(faults=(
        FaultSpec(kind="transient_sense", period=7, count=5),
    ))
    result = execute(_spec(plan))
    m = result.metrics
    assert result.completed
    assert m.faults_injected == 5
    assert m.faults_absorbed == 5       # every faulted read still completed
    assert m.fault_retries >= 5
    assert m.degraded_reads == 0
    assert SimMetrics.from_dict(json.loads(json.dumps(m.to_dict()))) == m


def test_latency_spike_slows_the_run():
    plan = FaultPlan(faults=(
        FaultSpec(kind="latency_spike", period=3, magnitude=8.0),
    ))
    clean = execute(_spec())
    slow = execute(_spec(plan))
    assert slow.completed
    assert slow.metrics.faults_injected > 0
    assert slow.metrics.elapsed_us > clean.metrics.elapsed_us


def test_channel_corrupt_within_budget_absorbed():
    plan = FaultPlan(faults=(
        FaultSpec(kind="channel_corrupt", period=11, count=3, magnitude=2),
    ), max_retries=4)
    clean = execute(_spec())
    result = execute(_spec(plan))
    assert result.completed
    assert result.metrics.degraded_reads == 0
    assert (result.metrics.uncorrectable_transfers
            >= clean.metrics.uncorrectable_transfers + 6)  # 3 firings x 2


def test_channel_corrupt_beyond_budget_degrades():
    plan = FaultPlan(faults=(
        FaultSpec(kind="channel_corrupt", period=17, count=2, magnitude=10),
    ), max_retries=2)
    result = execute(_spec(plan))
    assert result.completed            # degraded reads still complete
    assert result.metrics.degraded_reads == 2


def test_sense_retry_exhaustion_absorb_and_raise():
    faults = (FaultSpec(kind="transient_sense", period=13, count=2,
                        magnitude=10),)
    absorbed = execute(_spec(FaultPlan(faults=faults, max_retries=2)))
    assert absorbed.completed
    assert absorbed.metrics.degraded_reads == 2
    with pytest.raises(RetryExhaustedError):
        execute(_spec(FaultPlan(faults=faults, max_retries=2,
                                on_degraded="raise")))


def test_die_offline_absorb_and_raise():
    faults = (FaultSpec(kind="die_offline", channel=0, die=0),)
    result = execute(_spec(FaultPlan(faults=faults)))
    assert result.completed
    assert result.metrics.degraded_reads > 0
    with pytest.raises(DegradedReadError):
        execute(_spec(FaultPlan(faults=faults, on_degraded="raise")))


def test_grown_bad_block_retired_through_ftl():
    plan = FaultPlan(faults=(
        FaultSpec(kind="grown_bad_block", block=0, start_read=5, count=1),
    ))
    result = execute(_spec(plan))
    assert result.completed
    assert result.metrics.retired_blocks == 1
    assert result.metrics.degraded_reads == 0


def test_retiring_read_samples_the_relocated_page(monkeypatch):
    """The read that retires a grown-bad block samples its page where the
    relocation moved it, not in the retired block."""
    config = small_test_config()
    plan = FaultPlan(faults=(
        FaultSpec(kind="grown_bad_block", block=0, count=1),
    ))
    ssd = SSDSimulator(config, policy="SSDzero", seed=3, fault_plan=plan)
    sampled = []
    rber = ssd.sampler.rber

    def spy(block_key, page, *args):
        sampled.append((block_key, page))
        return rber(block_key, page, *args)

    monkeypatch.setattr(ssd.sampler, "rber", spy)
    # lpn 0 is a cold page at ppn 0: block 0 of plane 0
    ssd.submit_request(IORequest(0.0, "R", 0, 16 * KIB))
    ssd.run()
    assert ssd.metrics.retired_blocks == 1
    home = AddressMapper(config.geometry).address(ssd.ftl.current_ppn(0))
    assert home.block != 0
    assert sampled == [(home.block_key(), home.page)]


def test_retiring_read_samples_the_read_count_of_the_new_home(monkeypatch):
    """The read that retires a grown-bad block samples the read count that
    re-resolving it through ``ftl.read`` returned (the new block's), not
    the retired block's."""
    plan = FaultPlan(faults=(
        # the fourth read of block 0 retires it
        FaultSpec(kind="grown_bad_block", block=0, start_read=3, count=1),
    ))
    ssd = SSDSimulator(small_test_config(), policy="SSDzero", seed=3,
                       fault_plan=plan)
    sampled, resolved = [], []
    rber, read = ssd.sampler.rber, ssd.ftl.read

    def spy_rber(block_key, page, retention_days, read_count=0):
        sampled.append(read_count)
        return rber(block_key, page, retention_days, read_count)

    def spy_read(lpn):
        resolved.append(read(lpn))
        return resolved[-1]

    monkeypatch.setattr(ssd.sampler, "rber", spy_rber)
    monkeypatch.setattr(ssd.ftl, "read", spy_read)
    for _ in range(4):  # lpn 0 (ppn 0, block 0) read one page at a time
        ssd.submit_request(IORequest(ssd.sim.now, "R", 0, 16 * KIB))
        ssd.run()
    assert ssd.metrics.retired_blocks == 1
    assert len(resolved) == 1  # only the retiring read re-resolves
    assert sampled == [1, 2, 3, resolved[0][2]]
    assert resolved[0][2] == 1  # the new home had not been read


def test_degraded_last_page_completes_at_the_host_link_end(monkeypatch):
    """A read whose last outstanding page degrades while an earlier page
    is still crossing the host link completes when that page has crossed,
    not when the last page degraded."""
    plan = FaultPlan(max_retries=0, faults=(
        # the read's second page: one corrupt transfer, no re-transfer
        FaultSpec(kind="channel_corrupt", start_read=1, count=1),
    ))
    ssd = SSDSimulator(small_test_config(), policy="SSDzero", seed=3,
                       fault_plan=plan, channel_arbitration=True)
    booked, degraded_at, done_at = [], [], []
    book = HostLink.book

    def book_spy(link, tag):
        end = book(link, tag)
        booked.append((tag, ssd.sim.now, end))
        return end

    monkeypatch.setattr(HostLink, "book", book_spy)
    degraded_read = ssd._degraded_read

    def spy(state, error):
        degraded_at.append(ssd.sim.now)
        degraded_read(state, error)

    monkeypatch.setattr(ssd, "_degraded_read", spy)
    # 64 write pages keep the host link busy for 131 us; arbitration lets
    # the read's transfers pass their DMAs
    ssd.submit_request(IORequest(0.0, "W", 1024 * KIB, 1024 * KIB))
    ssd.submit_request(IORequest(0.0, "R", 0, 32 * KIB),
                       on_complete=lambda: done_at.append(ssd.sim.now))
    ssd.run()
    reads = [(at, end) for tag, at, end in booked if tag == "READ"]
    assert len(reads) == 1 and ssd.metrics.degraded_reads == 1
    (first_booked_at, first_end), = reads
    assert first_booked_at < degraded_at[0] < first_end
    assert done_at == [first_end]
    assert ssd.metrics.read_latencies_us == [first_end]


def test_ecc_saturation_produces_eccwait():
    plan = FaultPlan(faults=(
        FaultSpec(kind="ecc_saturation", start_us=0.0, end_us=300.0,
                  magnitude=0),   # hold every slot on every channel
    ))
    clean = execute(_spec())
    stalled = execute(_spec(plan))
    assert stalled.completed
    assert stalled.channel_usage.eccwait > clean.channel_usage.eccwait


def test_saturation_channel_out_of_range_rejected():
    plan = FaultPlan(faults=(
        FaultSpec(kind="ecc_saturation", channel=99, start_us=0.0,
                  end_us=10.0),
    ))
    with pytest.raises(FaultInjectionError):
        execute(_spec(plan))


def test_nested_saturation_windows_keep_the_outer_hold():
    """An inner ``ecc_saturation`` window that ends inside an outer one on
    the same ECC must not lift the outer window's hold."""
    config = small_test_config()
    assert config.ecc.buffer_pages == 2
    plan = FaultPlan(faults=(
        FaultSpec(kind="ecc_saturation", channel=0, start_us=100.0,
                  end_us=1000.0, magnitude=0),   # the whole buffer
        FaultSpec(kind="ecc_saturation", channel=0, start_us=200.0,
                  end_us=300.0, magnitude=1),
    ))
    ssd = SSDSimulator(config, fault_plan=plan)
    ecc = ssd.eccs[0]
    held = {}
    for t in (150.0, 250.0, 400.0, 1100.0):
        ssd.sim.at(t, lambda t=t: held.__setitem__(t, ecc.held_slots))
    ssd.run()
    assert held == {150.0: 2, 250.0: 2, 400.0: 2, 1100.0: 0}


def test_fault_runs_are_deterministic():
    """The headline determinism criterion: two executions of one spec with
    a plan exercising every simulator-side fault kind produce identical
    ``SimulationResult.to_dict()`` payloads."""
    plan = FaultPlan(faults=(
        FaultSpec(kind="transient_sense", period=11, count=4, magnitude=2),
        FaultSpec(kind="latency_spike", period=9, count=5, magnitude=3.0),
        FaultSpec(kind="channel_corrupt", period=13, count=3),
        FaultSpec(kind="grown_bad_block", block=0, start_read=5, count=1),
        FaultSpec(kind="ecc_saturation", channel=0, start_us=50.0,
                  end_us=120.0, magnitude=0),
        FaultSpec(kind="die_offline", channel=1, die=1, start_read=40),
    ))
    spec = _spec(plan)
    first = execute(spec)
    second = execute(spec)
    assert first.completed
    assert first.metrics.faults_injected > 0
    assert first.to_dict() == second.to_dict()


# --- scripted ECC-buffer saturation (controller-level, no fault plan) ---------------


def test_scripted_full_buffer_stalls_deterministically():
    """With a one-slot decoder buffer and every first decode failing (each
    holds its slot for the full failed-decode latency), the channel must
    accumulate ECCWAIT — and the run must complete identically twice."""

    def run():
        config = small_test_config()
        config = replace(config, ecc=replace(config.ecc, buffer_pages=1))
        trace = generate("Ali124", n_requests=40, user_pages=2000, seed=5)
        ssd = SSDSimulator(
            config, policy="SWR", seed=5,
            outcome_model=ScriptedEccOutcomeModel(
                decode_script=[False] * 10_000, ecc=config.ecc
            ),
        )
        return ssd.run_trace(trace, queue_depth=8)

    first = run()
    second = run()
    assert first.completed
    assert first.channel_usage.eccwait > 0.0
    assert first.to_dict() == second.to_dict()


# --- functional die model hooks -----------------------------------------------------


def test_flash_die_bad_block_and_offline():
    die = FlashDie(blocks=2, pages_per_block=4, page_bits=64, planes=1,
                   seed=1)
    bits = np.zeros(64, dtype=np.uint8)
    die.program(0, 0, 0, bits)
    die.mark_bad_block(0, 0)
    assert die.is_bad_block(0, 0)
    with pytest.raises(FaultInjectionError):
        die.read(0, 0, 0)
    with pytest.raises(FaultInjectionError):
        die.program(0, 0, 1, bits)
    die.erase(0, 0)  # retirement flow: relocate, then erase reconditions
    assert not die.is_bad_block(0, 0)
    die.set_offline()
    assert not die.ready
    with pytest.raises(DegradedReadError):
        die.read(0, 0, 0)
    with pytest.raises(DegradedReadError):
        die.erase(0, 0)
    die.set_offline(False)
    assert die.ready
    die.program(0, 0, 0, bits)
    assert die.read(0, 0, 0).bits.shape == (64,)
