"""The full SSD simulator: request flow, accounting, and policy effects."""

import functools
import gc

import pytest

from repro.campaign.spec import RunSpec, execute
from repro.errors import ConfigError, SimulationError
from repro.faults import FaultPlan, FaultSpec
from repro.nand.geometry import PageAddress
from repro.ssd.ecc_model import ScriptedEccOutcomeModel
from repro.ssd.simulator import SSDSimulator
from repro.units import KIB
from repro.workloads import generate
from repro.workloads.trace import IORequest, Trace


def _single_read(ssd, size=64 * KIB, offset=0):
    done = {"n": 0}
    ssd.submit_request(
        IORequest(0.0, "R", offset, size),
        on_complete=lambda: done.update(n=done["n"] + 1),
    )
    ssd.run()
    return done["n"]


def test_single_read_completes(ssd_config):
    ssd = SSDSimulator(ssd_config, policy="SSDzero", seed=1)
    assert _single_read(ssd) == 1
    assert ssd.metrics.page_reads == 4
    assert ssd.metrics.host_read_bytes == 64 * KIB
    assert len(ssd.metrics.read_latencies_us) == 1


def test_single_write_completes(ssd_config):
    ssd = SSDSimulator(ssd_config, policy="SSDzero", seed=1)
    done = {"n": 0}
    ssd.submit_request(IORequest(0.0, "W", 0, 32 * KIB),
                       on_complete=lambda: done.update(n=1))
    ssd.run()
    assert done["n"] == 1
    assert ssd.metrics.page_writes == 2
    assert ssd.metrics.host_write_bytes == 32 * KIB
    # a write takes at least host + dma + tPROG
    assert ssd.metrics.write_latencies_us[0] >= ssd.config.timings.t_prog


def test_read_latency_at_least_physical_minimum(ssd_config):
    ssd = SSDSimulator(ssd_config, policy="SSDzero", seed=2)
    _single_read(ssd, size=16 * KIB)
    t = ssd.config.timings
    minimum = t.t_read + t.t_dma  # + decode + host, so strictly more
    assert ssd.metrics.read_latencies_us[0] > minimum


def test_scripted_failure_adds_retry_latency(ssd_config):
    clean = SSDSimulator(ssd_config, policy="SSDone", seed=3,
                         outcome_model=ScriptedEccOutcomeModel())
    _single_read(clean, size=16 * KIB)
    failing = SSDSimulator(ssd_config, policy="SSDone", seed=3,
                           outcome_model=ScriptedEccOutcomeModel(
                               decode_script=[False]))
    _single_read(failing, size=16 * KIB)
    t = ssd_config.timings
    delta = failing.metrics.read_latencies_us[0] - clean.metrics.read_latencies_us[0]
    # one extra round: sense + transfer (+ decode difference)
    assert delta >= t.t_read + t.t_dma


def test_rif_retry_never_transfers_uncorrectable(ssd_config):
    ssd = SSDSimulator(ssd_config, policy="RiFSSD", seed=4,
                       outcome_model=ScriptedEccOutcomeModel(
                           rp_script=[False] * 4))
    _single_read(ssd)
    assert ssd.metrics.retried_reads == 4
    assert ssd.metrics.in_die_retries == 4
    assert ssd.metrics.uncorrectable_transfers == 0
    usage = ssd.channel_usage()
    assert usage.uncor == 0.0


def test_ssdone_retry_wastes_channel(ssd_config):
    ssd = SSDSimulator(ssd_config, policy="SSDone", seed=4,
                       outcome_model=ScriptedEccOutcomeModel(
                           decode_script=[False] * 4))
    _single_read(ssd)
    assert ssd.metrics.uncorrectable_transfers == 4
    assert ssd.channel_usage().uncor > 0


def test_rif_ships_and_decodes_less_than_swr_when_worn(ssd_config):
    """SWR's failed first reads cross the channel and burn a full decode;
    RiF retries them in the die, so on the same worn trace it spends less
    channel transfer time and decoder time than SWR, transfers about what
    SSDzero does, and pays for it in array senses instead."""
    trace = generate("Ali124", n_requests=300, user_pages=6000, seed=41)
    transfer, decode, senses = {}, {}, {}
    for policy in ("SWR", "RiFSSD", "SSDzero"):
        ssd = SSDSimulator(ssd_config, policy=policy, pe_cycles=2000, seed=41)
        ssd.run_trace(trace)
        transfer[policy] = sum(ch.busy_time_by_tag.get("COR", 0.0)
                               + ch.busy_time_by_tag.get("UNCOR", 0.0)
                               for ch in ssd.channels)
        decode[policy] = sum(ecc.decoder.total_busy_time() for ecc in ssd.eccs)
        senses[policy] = ssd.metrics.total_senses
    assert transfer["RiFSSD"] < transfer["SWR"]
    assert decode["RiFSSD"] < decode["SWR"]
    assert transfer["RiFSSD"] < 1.05 * transfer["SSDzero"]
    assert senses["RiFSSD"] > 1.3 * senses["SSDzero"]


def test_channel_usage_accounts_whole_timeline(ssd_config):
    trace = generate("Ali124", n_requests=100, user_pages=2000, seed=5)
    ssd = SSDSimulator(ssd_config, policy="SWR", pe_cycles=2000, seed=5)
    result = ssd.run_trace(trace)
    usage = result.channel_usage
    assert usage.total == pytest.approx(
        result.metrics.elapsed_us * ssd_config.geometry.channels
    )
    fractions = usage.fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)


def test_channel_usage_before_run_rejected(ssd_config):
    ssd = SSDSimulator(ssd_config, seed=1)
    with pytest.raises(SimulationError):
        ssd.channel_usage()


def test_run_trace_closed_loop(ssd_config):
    trace = generate("Sys0", n_requests=150, user_pages=2000, seed=6)
    ssd = SSDSimulator(ssd_config, policy="RiFSSD", pe_cycles=1000, seed=6)
    result = ssd.run_trace(trace)
    assert result.workload == "Sys0"
    assert result.policy == "RiFSSD"
    assert result.pe_cycles == 1000
    assert result.metrics.host_read_bytes > 0
    assert result.metrics.host_write_bytes > 0
    assert result.io_bandwidth_mb_s > 0
    # all 150 requests completed
    total = len(result.metrics.read_latencies_us) + len(
        result.metrics.write_latencies_us)
    assert total == 150


def test_run_trace_timed_mode(ssd_config):
    trace = generate("Ali2", n_requests=60, user_pages=2000, seed=7)
    ssd = SSDSimulator(ssd_config, policy="SSDzero", seed=7)
    result = ssd.run_trace(trace, mode="timed")
    assert result.metrics.elapsed_us >= trace[-1].timestamp_us


@pytest.mark.parametrize("kwargs", [
    {"mode": "warp"},
    {"time_limit_us": float("nan")},
    {"time_limit_us": 0.0},
    {"time_limit_us": -5.0},
    {"time_limit_us": "5"},
    {"time_limit_us": True},
], ids=["mode-warp", "limit-nan", "limit-0", "limit-negative", "limit-str",
        "limit-bool"])
def test_run_trace_unknown_mode(ssd_config, kwargs):
    """run_trace checks its host arguments by RunSpec's rule: a NaN limit
    would run with none, a zero or negative one would end the run before
    its first event, a string would fail deeper with a ``TypeError`` and
    true would run with a 1 us limit."""
    trace = generate("Ali2", n_requests=5, user_pages=2000, seed=8)
    ssd = SSDSimulator(ssd_config, seed=8)
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        ssd.run_trace(trace, **kwargs)
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        RunSpec(workload="Ali2", policy="RiFSSD", **kwargs)


def test_same_seed_same_result(ssd_config):
    trace = generate("Ali121", n_requests=80, user_pages=2000, seed=9)

    def run():
        ssd = SSDSimulator(ssd_config, policy="SWR+", pe_cycles=1000, seed=9)
        return ssd.run_trace(trace).io_bandwidth_mb_s

    assert run() == run()


def test_fault_free_drive_creates_no_partials(ssd_config):
    """Pipeline transitions are bound once per pipeline and called with
    the slot index, so growing to 64+ slots builds no per-slot closures.
    The collector is off during the run, so a partial caught in a
    reference cycle would still be alive to count."""
    trace = generate("Ali124", n_requests=400, user_pages=4000, seed=12)
    ssd = SSDSimulator(ssd_config, policy="RiFSSD", pe_cycles=2000, seed=12)

    def partials():
        return sum(isinstance(obj, functools.partial)
                   for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = partials()
        result = ssd.run_trace(trace, queue_depth=64)
        after = partials()
    finally:
        gc.enable()
    assert result.metrics.faults_injected == 0
    assert len(ssd._pipeline._cursor) >= 64  # the slot pool grew
    assert after == before


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "faulted"])
def test_write_heavy_run_builds_no_page_address(monkeypatch, faulted):
    """The FTL and the pipeline speak page numbers: a write-heavy run with
    GC (Ali2 at the small scale) builds no ``PageAddress`` — nor, faulted,
    does the sequential read path with its block retirement, fault
    folding and read-disturb relocation."""
    built = []
    init = PageAddress.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PageAddress, "__init__", counting_init)
    plan = FaultPlan(faults=(
        FaultSpec(kind="grown_bad_block", block=0, start_read=5, count=1),
        FaultSpec(kind="transient_sense", period=7, count=5),
        FaultSpec(kind="latency_spike", period=9, count=5, magnitude=3.0),
        FaultSpec(kind="channel_corrupt", period=13, count=3),
    )) if faulted else None
    result = execute(RunSpec(
        workload="Ali2", policy="RiFSSD", n_requests=4000, seed=7,
        fault_plan=plan, read_disturb_threshold=16 if faulted else None))
    m = result.metrics
    assert result.completed
    assert m.page_writes > 10_000 and m.gc_page_copies > 0
    if faulted:
        assert m.retired_blocks and m.disturb_relocations
        assert m.faults_injected
    assert built == []
    PageAddress(0, 0, 0, 0, 0)
    assert len(built) == 1  # the patch does count constructions


def test_tracer_records_phases(ssd_config):
    ssd = SSDSimulator(ssd_config, policy="SSDzero", seed=10, tracing=True)
    _single_read(ssd, size=32 * KIB)
    by_resource = ssd.tracer.by_resource()
    assert any(name.startswith("plane") for name in by_resource)
    assert any(name.startswith("ch") for name in by_resource)
    assert any(name.startswith("ecc") for name in by_resource)
    for events in by_resource.values():
        for ev in events:
            assert ev.end_us >= ev.start_us


def test_gc_traffic_reaches_channels(tiny_ssd_config):
    """Enough overwrites on a tiny device force GC, whose relocations must
    show up in channel accounting."""
    ssd = SSDSimulator(tiny_ssd_config, policy="SSDzero", seed=11)
    user = ssd.ftl.user_pages
    reqs = [IORequest(float(i), "W", (i % 4) * 16 * KIB, 16 * KIB)
            for i in range(user * 3)]
    ssd.run_trace(Trace(reqs, name="hammer"), queue_depth=4)
    assert ssd.ftl.gc_runs > 0
    assert ssd.metrics.gc_page_copies == ssd.ftl.pages_copied_by_gc
    usage = ssd.channel_usage()
    if ssd.metrics.gc_page_copies:
        assert usage.gc > 0
