"""Serial resources, decoder gating, and the ECC buffer (ECCWAIT source)."""

import pytest

from repro.errors import SimulationError
from repro.ssd.events import Simulator
from repro.ssd.resources import Channel, Ecc, Fifo


def _gated_channel(sim, buffer_pages=1):
    """A FIFO channel whose gated entries wait on its decoder buffer."""
    ecc = Ecc(sim, "ecc", buffer_pages=buffer_pages)
    channel = Channel(sim, "ch", ecc)
    ecc.subscribe_on_release(channel.kick)
    return channel, ecc


def test_jobs_run_serially_fifo():
    """One callback serves every job: it is called with the job's slot."""
    sim = Simulator()
    res = Fifo(sim, "r")
    done = []
    for slot in range(3):
        res.occupy(10.0, "T", lambda i: done.append((i, sim.now)), slot)
    sim.run()
    assert done == [(0, 10.0), (1, 20.0), (2, 30.0)]
    assert res.busy_time_by_tag["T"] == 30.0
    assert res.jobs_completed == 3


def test_busy_time_split_by_tag():
    sim = Simulator()
    res = Fifo(sim, "r")
    res.occupy(5.0, "A", None)
    res.occupy(7.0, "B", None)
    res.occupy(3.0, "A", None)
    sim.run()
    assert res.busy_time_by_tag == {"A": 8.0, "B": 7.0}
    assert res.total_busy_time() == 15.0


def test_gated_job_waits_and_blocked_time_recorded():
    sim = Simulator()
    channel, ecc = _gated_channel(sim)
    ecc.hold_slots()  # decoder buffer shut until t=10
    sim.after(10.0, ecc.release_held_slots)
    done = []
    channel.occupy(2.0, "T", lambda i: done.append((i, sim.now)), 5,
                   gated=True)
    sim.run()
    assert done == [(5, 12.0)]
    assert channel.blocked_time == pytest.approx(10.0)


def test_gate_blocks_queue_head_only():
    """Head-of-line blocking is intentional: FIFO order is preserved."""
    sim = Simulator()
    channel, ecc = _gated_channel(sim)
    ecc.hold_slots()
    sim.after(5.0, ecc.release_held_slots)
    names = ("gated", "free")
    order = []

    def record(i):
        order.append(names[i])

    channel.occupy(1.0, "gated", record, 0, gated=True)
    channel.occupy(1.0, "free", record, 1)
    sim.run()
    assert order == ["gated", "free"]


def test_overlapping_holds_add_up_and_release_their_own_share():
    """Each burst releases only its own hold; the gated head starts as
    soon as the usable buffer grows."""
    sim = Simulator()
    channel, ecc = _gated_channel(sim, buffer_pages=2)
    ecc.hold_slots(1)
    ecc.hold_slots(1)
    assert ecc.held_slots == 2
    sim.after(5.0, lambda: ecc.release_held_slots(1))
    sim.after(9.0, lambda: ecc.release_held_slots(1))
    done = []
    channel.occupy(1.0, "T", lambda i: done.append(sim.now), gated=True)
    sim.run()
    assert done == [6.0]
    assert ecc.held_slots == 0


def test_finalize_closes_open_block():
    sim = Simulator()
    channel, ecc = _gated_channel(sim)
    ecc.hold_slots()  # never released
    channel.occupy(1.0, "T", None, gated=True)
    sim.after(7.0, lambda: None)
    sim.run()
    channel.finalize()
    assert channel.blocked_time == pytest.approx(7.0)


def test_ecc_slots_reserve_release():
    sim = Simulator()
    ecc = Ecc(sim, "ecc", buffer_pages=2)
    assert ecc.can_reserve()
    ecc.reserve_slot()
    ecc.reserve_slot()
    assert not ecc.can_reserve()
    ecc.release_slot()
    assert ecc.can_reserve()
    with pytest.raises(SimulationError):
        ecc.release_slot()
        ecc.release_slot()


def test_ecc_overflow_rejected():
    sim = Simulator()
    ecc = Ecc(sim, "ecc", buffer_pages=1)
    ecc.reserve_slot()
    with pytest.raises(SimulationError):
        ecc.reserve_slot()


def test_decode_releases_slot_and_notifies():
    sim = Simulator()
    ecc = Ecc(sim, "ecc", buffer_pages=1)
    released = []
    ecc.subscribe_on_release(lambda: released.append(sim.now))
    ecc.reserve_slot()
    done = []

    def decoded(i):
        ecc.release_slot()
        done.append((i, sim.now))

    ecc.decoder.occupy(4.0, "COR", decoded, 3)
    sim.run()
    assert done == [(3, 4.0)]
    assert released == [4.0]
    assert ecc.slots_in_use == 0


def test_full_buffer_stalls_channel_until_decode_done():
    """End-to-end ECCWAIT: a slow decode holding the last slot delays the
    channel's next transfer by exactly the remaining decode time."""
    sim = Simulator()
    channel, ecc = _gated_channel(sim)
    labels = ("slow", "next")
    decode_us = (30.0, 1.0)
    finished = []

    def transferred(i):
        ecc.decoder.occupy(decode_us[i], "COR", decoded, i)

    def decoded(i):
        ecc.release_slot()
        finished.append((labels[i], sim.now))

    channel.occupy(10.0, "COR", transferred, 0, gated=True)  # 0-10, decode 10-40
    channel.occupy(10.0, "COR", transferred, 1, gated=True)  # waits until t=40
    sim.run()
    assert finished == [("slow", 40.0), ("next", 51.0)]
    channel.finalize()
    assert channel.blocked_time == pytest.approx(30.0)


def test_min_buffer_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Ecc(sim, "e", buffer_pages=0)
