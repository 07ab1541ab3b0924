"""Failure injection: the system must fail loudly and recover cleanly."""

import pytest

from repro.config import SSDConfig
from repro.errors import SimulationError, TraceError
from repro.ssd.ecc_model import ScriptedEccOutcomeModel
from repro.ssd.simulator import SSDSimulator
from repro.units import KIB
from repro.workloads.trace import IORequest, Trace


def test_read_beyond_user_space_raises(ssd_config):
    ssd = SSDSimulator(ssd_config, policy="SSDzero", seed=1)
    beyond = ssd.ftl.user_pages * 16 * KIB
    with pytest.raises(TraceError):
        ssd.submit_request(IORequest(0.0, "R", beyond, 16 * KIB))


def test_hopeless_pages_survive_via_soft_recovery(ssd_config):
    """Every decode (first and retried) fails: the soft-recovery fallback
    must still complete every request, at terrible but finite latency."""

    class HopelessModel(ScriptedEccOutcomeModel):
        def first_decode_outcome(self, rber):
            return False, self.ecc.t_ecc_max

        def retried_decode_outcome(self, rber):
            return False, self.ecc.t_ecc_max

    ssd = SSDSimulator(ssd_config, policy="SWR", seed=2,
                       outcome_model=HopelessModel())
    done = {"n": 0}
    ssd.submit_request(IORequest(0.0, "R", 0, 32 * KIB),
                       on_complete=lambda: done.update(n=1))
    ssd.run()
    assert done["n"] == 1
    # both pages went through the full reactive ladder + soft recovery
    assert ssd.metrics.total_senses > 2 * 10
    assert ssd.metrics.uncorrectable_transfers >= 2


def test_device_overfill_raises_capacity_error():
    """Writing more unique logical pages than the device exposes must fail
    with the library's own error, not corrupt state."""
    config = SSDConfig().scaled(
        channels=1, dies_per_channel=1, planes_per_die=1,
        blocks_per_plane=4, pages_per_block=4,
    )
    from repro.ssd.ftl import PageMapFtl

    ftl = PageMapFtl(config)
    with pytest.raises(TraceError):
        # lpn outside the shrunken user space
        ftl.write(ftl.user_pages + 1, 0.0)


def test_simulation_clock_never_goes_backwards(ssd_config):
    ssd = SSDSimulator(ssd_config, policy="RiFSSD", pe_cycles=2000, seed=3)
    times = []
    original = ssd.sim.events.push

    def spy(time, callback):
        times.append(ssd.sim.now)
        original(time, callback)

    ssd.sim.events.push = spy
    from repro.workloads import generate

    ssd.run_trace(generate("Ali124", n_requests=50, user_pages=2000, seed=3))
    assert times == sorted(times)


def test_zero_size_request_rejected():
    with pytest.raises(TraceError):
        IORequest(0.0, "R", 0, 0)


def test_trace_with_decreasing_time_rejected():
    with pytest.raises(TraceError):
        Trace([IORequest(10.0, "R", 0, 16 * KIB),
               IORequest(5.0, "R", 0, 16 * KIB)])


def test_runaway_event_loop_guard(ssd_config):
    ssd = SSDSimulator(ssd_config, seed=4)

    def rearm():
        ssd.sim.after(1.0, rearm)

    ssd.sim.after(0.0, rearm)
    with pytest.raises(SimulationError):
        ssd.sim.run(max_events=50)


def test_double_run_is_safe(ssd_config):
    """Running the event loop again after completion must be a no-op, not
    an error or a metrics corruption."""
    from repro.workloads import generate

    ssd = SSDSimulator(ssd_config, policy="SSDzero", seed=5)
    trace = generate("Ali2", n_requests=30, user_pages=2000, seed=5)
    result = ssd.run_trace(trace)
    bytes_before = result.metrics.host_read_bytes
    ssd.run()
    assert ssd.metrics.host_read_bytes == bytes_before
