"""Channel arbitration: read priority and write bypass during ECC stalls."""

import pytest

from repro.config import small_test_config
from repro.ssd.events import Simulator
from repro.ssd.resources import Channel, Ecc
from repro.ssd.simulator import SSDSimulator
from repro.workloads import generate


# --- resource-level behaviour ---------------------------------------------------


def _channel(sim, arbitrated):
    """A channel wired to a one-page decoder buffer."""
    ecc = Ecc(sim, "ecc", buffer_pages=1)
    channel = Channel(sim, "ch", ecc, arbitrated=arbitrated)
    ecc.subscribe_on_release(channel.kick)
    return channel, ecc


def test_arbitrated_resource_prefers_priority():
    sim = Simulator()
    res, _ecc = _channel(sim, arbitrated=True)
    names = ("low", "high")
    order = []

    def record(i):
        order.append(names[i])

    # occupy the resource so the contenders queue up
    res.occupy(5.0, "T", None)
    res.occupy(1.0, "low", record, 0, priority=0)
    res.occupy(1.0, "high", record, 1, priority=1)
    sim.run()
    assert order == ["high", "low"]


def test_arbitrated_resource_fifo_within_priority():
    sim = Simulator()
    res, _ecc = _channel(sim, arbitrated=True)
    order = []
    res.occupy(5.0, "T", None)
    for slot in range(3):
        res.occupy(1.0, "x", order.append, slot, priority=1)
    sim.run()
    assert order == [0, 1, 2]


def test_fifo_resource_ignores_priority():
    sim = Simulator()
    res, _ecc = _channel(sim, arbitrated=False)
    names = ("low", "high")
    order = []

    def record(i):
        order.append(names[i])

    res.occupy(5.0, "T", None)
    res.occupy(1.0, "low", record, 0, priority=0)
    res.occupy(1.0, "high", record, 1, priority=9)
    sim.run()
    assert order == ["low", "high"]


def test_ungated_job_bypasses_stalled_head():
    """The payoff case: a read transfer gated on a full decoder buffer no
    longer blocks a write transfer behind it."""
    sim = Simulator()
    channel, ecc = _channel(sim, arbitrated=True)
    ecc.slots_in_use = 1  # a decode holds the one buffer slot until t=100
    sim.after(100.0, channel.release_slot)
    names = ("read", "write")
    done = []

    def record(i):
        done.append((names[i], sim.now))

    channel.occupy(10.0, "COR", record, 0, gated=True, priority=1)
    channel.occupy(10.0, "WRITE", record, 1, priority=0)
    sim.run()
    # the write went first (the read was stalled), the read followed the
    # slot release
    assert done[0][0] == "write"
    assert done[0][1] == pytest.approx(10.0)
    assert done[1][0] == "read"
    assert done[1][1] >= 100.0


# --- simulator-level effect -----------------------------------------------------------


def _mixed_run(arbitration: bool):
    trace = generate("Ali2", n_requests=250, user_pages=6000, seed=71)
    ssd = SSDSimulator(small_test_config(), policy="SWR", pe_cycles=2000,
                       seed=71, channel_arbitration=arbitration)
    result = ssd.run_trace(trace)
    return result


def test_arbitration_reduces_eccwait_on_mixed_workload():
    """On a write-heavy workload under retry pressure, letting writes slip
    past decoder-stalled reads reclaims channel time."""
    fifo = _mixed_run(False)
    arb = _mixed_run(True)
    assert arb.channel_usage.eccwait <= fifo.channel_usage.eccwait
    # completions are identical either way
    assert (len(arb.metrics.read_latencies_us)
            == len(fifo.metrics.read_latencies_us))
    assert arb.metrics.host_write_bytes == fifo.metrics.host_write_bytes


def test_arbitration_never_loses_requests():
    result = _mixed_run(True)
    total = (len(result.metrics.read_latencies_us)
             + len(result.metrics.write_latencies_us))
    assert total == 250
