"""Host drivers: closed-loop and timed replay."""

import pytest

from repro.config import small_test_config
from repro.errors import ConfigError, SimulationError
from repro.ssd.host import ClosedLoopHost, TimedReplayHost
from repro.ssd.simulator import SSDSimulator
from repro.workloads import generate
from repro.workloads.trace import Trace


def _ssd():
    return SSDSimulator(small_test_config(), policy="SSDzero", seed=3)


def test_closed_loop_completes_all_requests():
    trace = generate("Ali121", n_requests=50, user_pages=2000, seed=1)
    ssd = _ssd()
    host = ClosedLoopHost(ssd, trace, queue_depth=8)
    host.start()
    ssd.run()
    assert host.done
    assert host.completed == 50


def test_closed_loop_respects_max_requests():
    trace = generate("Ali121", n_requests=50, user_pages=2000, seed=1)
    ssd = _ssd()
    host = ClosedLoopHost(ssd, trace, queue_depth=4, max_requests=10)
    host.start()
    ssd.run()
    assert host.completed == 10


def test_closed_loop_queue_depth_bounds_outstanding():
    trace = generate("Ali121", n_requests=30, user_pages=2000, seed=2)
    ssd = _ssd()
    host = ClosedLoopHost(ssd, trace, queue_depth=3)
    host.start()
    assert host._outstanding == 3
    ssd.run()
    assert host._outstanding == 0


def test_deeper_queue_not_slower():
    """More outstanding requests must not reduce throughput."""
    trace = generate("Ali124", n_requests=120, user_pages=2000, seed=3)

    def bw(depth):
        ssd = SSDSimulator(small_test_config(), policy="SSDzero", seed=3)
        return ssd.run_trace(trace, queue_depth=depth).io_bandwidth_mb_s

    assert bw(32) >= bw(1) * 1.5


def test_timed_replay_respects_timestamps():
    trace = generate("Ali2", n_requests=40, user_pages=2000, seed=4)
    ssd = _ssd()
    host = TimedReplayHost(ssd, trace)
    host.start()
    ssd.run()
    assert host.done
    assert ssd.sim.now >= trace[-1].timestamp_us


def test_empty_trace_rejected():
    ssd = _ssd()
    with pytest.raises(SimulationError):
        ClosedLoopHost(ssd, Trace([]))
    with pytest.raises(SimulationError):
        TimedReplayHost(ssd, Trace([]))


@pytest.mark.parametrize("driver", ["closed"])
@pytest.mark.parametrize("queue_depth", [0, -3, 2.5])
def test_bad_queue_depth_rejected(driver, queue_depth):
    """A zero depth must not silently run the config's default, and a
    negative one must not issue nothing."""
    trace = generate("Ali121", n_requests=20, user_pages=2000, seed=1)
    host = {"closed": ClosedLoopHost}[driver]
    with pytest.raises(ConfigError, match="queue_depth"):
        host(_ssd(), trace, queue_depth=queue_depth)


@pytest.mark.parametrize("driver", ["closed", "timed"])
@pytest.mark.parametrize("max_requests", [0, -1])
def test_bad_max_requests_rejected(driver, max_requests):
    trace = generate("Ali121", n_requests=20, user_pages=2000, seed=1)
    host = {"closed": ClosedLoopHost, "timed": TimedReplayHost}[driver]
    with pytest.raises(ConfigError, match="max_requests"):
        host(_ssd(), trace, max_requests=max_requests)


@pytest.mark.parametrize("kwargs", [{"queue_depth": 0},
                                    {"queue_depth": -3},
                                    {"max_requests": -1}])
def test_run_trace_rejects_bad_sizes(kwargs):
    trace = generate("Ali121", n_requests=20, user_pages=2000, seed=1)
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        _ssd().run_trace(trace, **kwargs)
