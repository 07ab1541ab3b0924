"""Contended hardware resources: planes, channels, per-channel ECC and
the host link.

Everything serial in the SSD executes one unit of work at a time; planes,
channels and decoders record how long they were busy under each tag (the
channel-usage classification of Fig. 18 falls out of this), and the host
link counts its pages under each tag:

* :class:`Fifo` — strict FIFO (planes, decode units);
* :class:`HostLink` — the host link: a strict FIFO whose every job takes
  the same time, so it is solved in closed form when the job is enqueued;
* :class:`Channel` — a flash channel whose read transfers are *gated* on
  a free slot in the channel's :class:`Ecc` decoder buffer.  While the
  queue head (or, arbitrated, every runnable candidate) is gated shut the
  channel accumulates *blocked* time, and that blocked time **is** the
  paper's ECCWAIT.  The channel owns the slot count's one path: it
  reserves a slot when a gated transfer starts and frees it in
  :meth:`Channel.release_slot` when that page's decode completes;
* :class:`Ecc` — the finite decoder input buffer (a slot counter, plus
  the slots a fault burst squats) and a serial decode unit.

Work is enqueued through ``occupy(duration, tag, cb, slot, label)``
(the host link's jobs all take one time: ``occupy(tag, cb, arg)``);
``cb(slot)`` runs when the work completes, so a caller serving many
in-flight jobs (the read pipeline's slots) hands over one bound method
and an index instead of a closure per job.  The resources are
allocation-free on that path (one reused tuple per in-flight job,
completion events pushed straight onto the event heap), and their
handler order is part of the simulation's determinism contract: a
finish handler clears ``busy``, accounts busy time, bumps
``jobs_completed``, calls the probes, runs the callback and only then
starts the next queued entry — a callback that enqueues on the same
resource starts the *queue head*, not its own job.  Planes, channels and
decoders push a job's completion event when the job *starts*.  The host
link has no finish handler: it fixes each job's end when the job is
enqueued, and only a job with a callback gets an event (see
:class:`HostLink`).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Dict, List, Optional

from ..errors import SimulationError


class Fifo:
    """Strict-FIFO serial resource (planes, decode units)."""

    __slots__ = ("sim", "name", "busy_time_by_tag", "jobs_completed",
                 "_queue", "_busy", "_probes", "_cur", "_finish_cb",
                 "_events")

    def __init__(self, sim, name: str):
        self.sim = sim
        self._events = sim.events
        self.name = name
        self._queue: deque = deque()
        self._busy = False
        self.busy_time_by_tag: Dict[str, float] = {}
        self.jobs_completed: int = 0
        self._probes: List[Callable] = []
        #: the in-flight job as one tuple — (duration, tag, cb, slot,
        #: label, start) — written once per start, read once per finish
        self._cur: tuple = (0.0, "", None, 0, None, 0.0)
        self._finish_cb = self._finish

    def occupy(self, duration: float, tag: str,
               cb: Optional[Callable[[int], None]], slot: int = 0,
               label: Optional[tuple] = None) -> None:
        """Enqueue one unit of work; ``cb(slot)`` runs when it completes."""
        if self._busy:
            self._queue.append((duration, tag, cb, slot, label))
            return
        if self._queue:
            # only reachable from inside a completion callback (busy was
            # cleared but the next entry has not started yet): keep FIFO
            # order by starting the queue head
            self._queue.append((duration, tag, cb, slot, label))
            duration, tag, cb, slot, label = self._queue.popleft()
        self._busy = True
        now = self.sim.now
        self._cur = (duration, tag, cb, slot, label, now)
        # inlined EventQueue.push — completions are the simulation's
        # hottest schedule site (plan durations are never negative, so
        # Simulator.after's guard is redundant here)
        events = self._events
        seq = events.tie_break
        events.tie_break = seq + 1
        heappush(events._heap, (now + duration, seq, self._finish_cb))

    def _start_next(self) -> None:
        duration, tag, cb, slot, label = self._queue.popleft()
        self._busy = True
        now = self.sim.now
        self._cur = (duration, tag, cb, slot, label, now)
        events = self._events
        seq = events.tie_break
        events.tie_break = seq + 1
        heappush(events._heap, (now + duration, seq, self._finish_cb))

    def _finish(self) -> None:
        self._busy = False
        duration, tag, cb, slot, label, start = self._cur
        self.busy_time_by_tag[tag] = (
            self.busy_time_by_tag.get(tag, 0.0) + duration
        )
        self.jobs_completed += 1
        if self._probes:
            now = self.sim.now
            for probe in self._probes:
                probe(self.name, tag, start, now, label)
        if cb is not None:
            cb(slot)
        if not self._busy and self._queue:
            self._start_next()

    def attach_probe(
        self, probe: Callable[[str, str, float, float, Optional[tuple]], None]
    ) -> None:
        """Register a passive occupancy observer.

        Each probe is called as ``probe(name, tag, start_us, end_us, label)``
        (``label`` is the job's, passed through untouched: ``None``, or a
        read job's ``(page label, request id)`` on a traced run) when a job
        has finished (on the :class:`HostLink`: at the first
        booking or :meth:`HostLink.finalize` after its end) or (on a
        :class:`Channel`) a blocked interval closes — the latter with tag
        ``"ECCWAIT"``.  Probes only observe; they must not touch the event
        queue, which keeps traced runs bit-identical.
        """
        self._probes.append(probe)

    @property
    def busy(self) -> bool:
        return self._busy

    def total_busy_time(self) -> float:
        return sum(self.busy_time_by_tag.values())


class HostLink:
    """The host link: a strict FIFO with one constant service time
    (``page_us`` per page), solved in closed form.

    A job's end is known when it is enqueued: ``max(now, previous end) +
    page_us``, the float a :class:`Fifo` computes when it starts the job.
    :meth:`book` returns that end and schedules nothing (a read page that
    is not its request's last needs no event); :meth:`occupy` also
    schedules ``cb(arg)`` at the end.  Ends never decrease and equal
    times pop in push order, so scheduled callbacks fire in booking order
    and one deque serves them.  Traced or not, scheduling is the same.

    Two things differ from a :class:`Fifo`.  A queued job's completion is
    pushed, and takes its tie-break, when the job is booked rather than
    when it starts, so another event at exactly that end time can now run
    after the callback instead of before it; the link's bit-identity with
    a :class:`Fifo` rests on the golden cells and the benchmark digests,
    not on this construction.  And with probes attached a span is kept
    from its booking until a later :meth:`book` or :meth:`finalize` finds
    its end passed, so probes see, as on every resource, only jobs that
    have finished: a run cut short reports no span past its end, and a
    resumed run reports the rest.

    Planes and decoders stay event-driven: fixing their ends at enqueue
    reorders same-time completions, which follow push order, and changed
    all 26 golden digests.
    """

    __slots__ = ("sim", "name", "page_us", "free_at", "pages_by_tag",
                 "_pending", "_spans", "_probes", "_finish_cb", "_events")

    def __init__(self, sim, name: str, page_us: float):
        self.sim = sim
        self._events = sim.events
        self.name = name
        self.page_us = page_us
        #: end of the last booked job (the link is idle from then on)
        self.free_at: float = 0.0
        #: pages booked per tag (each keeps the link busy ``page_us``)
        self.pages_by_tag: Dict[str, int] = {}
        #: ``(cb, arg)`` of the scheduled jobs, in booking order
        self._pending: deque = deque()
        #: ``(tag, start, end)`` of booked jobs the probes have not seen
        self._spans: deque = deque()
        self._probes: List[Callable] = []
        self._finish_cb = self._finish

    def book(self, tag: str) -> float:
        """Enqueue one page and return the time it has crossed the link."""
        now = self.sim.now
        start = self.free_at
        if start < now:
            start = now
        end = self.free_at = start + self.page_us
        pages = self.pages_by_tag
        pages[tag] = pages.get(tag, 0) + 1
        if self._probes:
            spans = self._spans
            if spans and spans[0][2] <= now:
                self._report(now)
            spans.append((tag, start, end))
        return end

    def occupy(self, tag: str, cb: Callable, arg) -> None:
        """:meth:`book` one page and run ``cb(arg)`` when it has crossed."""
        end = self.book(tag)
        self._pending.append((cb, arg))
        events = self._events
        seq = events.tie_break
        events.tie_break = seq + 1
        heappush(events._heap, (end, seq, self._finish_cb))

    def _finish(self) -> None:
        cb, arg = self._pending.popleft()
        cb(arg)

    def _report(self, now: float) -> None:
        """Show the probes every kept span that has ended by ``now``."""
        spans = self._spans
        while spans and spans[0][2] <= now:
            tag, start, end = spans.popleft()
            for probe in self._probes:
                probe(self.name, tag, start, end, None)

    def finalize(self) -> None:
        """Report the spans that ended by now (the end of a run); pages
        still crossing the link stay for a resumed run."""
        self._report(self.sim.now)

    attach_probe = Fifo.attach_probe


class Channel:
    """Flash channel: FIFO (or priority-arbitrated) with decoder gating.

    A *gated* entry (a read transfer bound for the decoder buffer) can only
    start while its channel's :class:`Ecc` has a free slot, and reserves
    that slot at start.  Default scheduling is strict FIFO: a gated head
    blocks everything behind it (head-of-line blocking — this is what turns
    a full decoder buffer into the paper's ECCWAIT).  With
    ``arbitrated=True`` the channel instead picks the highest-priority
    *runnable* entry (FIFO within a priority level), letting un-gated work
    — e.g. write transfers, which need no decoder slot — bypass a stalled
    read transfer.  A blocked interval opens when nothing can start and
    closes, with an ``ECCWAIT`` probe when it has nonzero width, right
    before the next job starts (or at :meth:`finalize`).
    """

    __slots__ = ("sim", "name", "arbitrated", "busy_time_by_tag",
                 "blocked_time", "jobs_completed", "_ecc",
                 "_queue", "_busy", "_blocked_since", "_probes",
                 "_cur", "_finish_cb", "_events")

    def __init__(self, sim, name: str, ecc: "Ecc", arbitrated: bool = False):
        self.sim = sim
        self._events = sim.events
        self.name = name
        self.arbitrated = arbitrated
        self._ecc = ecc
        self._queue: deque = deque()
        self._busy = False
        self._blocked_since: Optional[float] = None
        self.busy_time_by_tag: Dict[str, float] = {}
        self.blocked_time: float = 0.0
        self.jobs_completed: int = 0
        self._probes: List[Callable] = []
        #: in-flight job as one (duration, tag, cb, slot, label, start)
        #: tuple
        self._cur: tuple = (0.0, "", None, 0, None, 0.0)
        self._finish_cb = self._finish

    def occupy(self, duration: float, tag: str,
               cb: Optional[Callable[[int], None]], slot: int = 0,
               label: Optional[tuple] = None, gated: bool = False,
               priority: int = 0) -> None:
        """Enqueue one transfer; ``cb(slot)`` runs when it completes.
        ``gated`` ones wait for (and reserve) a decoder-buffer slot, larger
        ``priority`` runs first when the channel arbitrates."""
        self._queue.append((gated, priority, duration, tag, cb, slot, label))
        if not self._busy:
            self._try_start()

    def _try_start(self) -> None:
        # a blocked interval is open only while something is queued: it
        # opens on a gated head and closes before any entry leaves
        queue = self._queue
        if self._busy or not queue:
            return
        ecc = self._ecc
        if not self.arbitrated:
            if (queue[0][0] and ecc.slots_in_use + ecc.held_slots
                    >= ecc.buffer_pages):
                if self._blocked_since is None:
                    self._blocked_since = self.sim.now
                return
            chosen = 0
        else:
            chosen = -1
            best_priority = 0
            full = ecc.slots_in_use + ecc.held_slots >= ecc.buffer_pages
            for idx, entry in enumerate(queue):
                if entry[0] and full:
                    continue
                if chosen < 0 or entry[1] > best_priority:
                    chosen = idx
                    best_priority = entry[1]
            if chosen < 0:
                if self._blocked_since is None:
                    self._blocked_since = self.sim.now
                return
        if self._blocked_since is not None:
            self._close_blocked()
        if chosen == 0:
            entry = queue.popleft()
        else:
            entry = queue[chosen]
            del queue[chosen]
        gated, _priority, duration, tag, cb, slot, label = entry
        self._busy = True
        if gated:
            # reserve the decoder slot (the gate above checked the room)
            ecc.slots_in_use += 1
            occupied = ecc.slots_in_use + ecc.held_slots
            if occupied > ecc.peak_slots_in_use:
                ecc.peak_slots_in_use = occupied
        now = self.sim.now
        self._cur = (duration, tag, cb, slot, label, now)
        # inlined EventQueue.push (see Fifo.occupy)
        events = self._events
        seq = events.tie_break
        events.tie_break = seq + 1
        heappush(events._heap, (now + duration, seq, self._finish_cb))

    def _finish(self) -> None:
        self._busy = False
        duration, tag, cb, slot, label, start = self._cur
        self.busy_time_by_tag[tag] = (
            self.busy_time_by_tag.get(tag, 0.0) + duration
        )
        self.jobs_completed += 1
        if self._probes:
            now = self.sim.now
            for probe in self._probes:
                probe(self.name, tag, start, now, label)
        if cb is not None:
            cb(slot)
        if self._queue:
            self._try_start()

    def _close_blocked(self) -> None:
        start = self._blocked_since
        now = self.sim.now
        self.blocked_time += now - start
        self._blocked_since = None
        if self._probes and now > start:
            for probe in self._probes:
                probe(self.name, "ECCWAIT", start, now, None)

    def release_slot(self) -> None:
        """Free the decoder-buffer slot of a page whose decode completed,
        and start the queue head if the channel is idle (a gated head may
        now fit)."""
        ecc = self._ecc
        if ecc.slots_in_use <= 0:
            raise SimulationError(f"{ecc.name}: slot underflow")
        ecc.slots_in_use -= 1
        if self._queue and not self._busy:
            self._try_start()

    def kick(self) -> None:
        """Re-evaluate the queue (a decoder slot may have freed up)."""
        self._try_start()

    attach_probe = Fifo.attach_probe

    def finalize(self) -> None:
        """Close any open blocked interval at the end of a run."""
        if self._blocked_since is not None:
            self._close_blocked()


class Ecc:
    """Per-channel LDPC decoder: finite input buffer + serial decode unit.

    A buffer slot is reserved when the channel *starts* streaming a page in
    (data accumulates in the buffer during the transfer) and released when
    that page's decode *completes* — so a slow (or failed, 20 us) decode
    holds its slot and eventually stalls the channel, reproducing the
    paper's third root cause (SecIII-B3).  The channel keeps the count
    (see :meth:`Channel.release_slot`); the decode unit is a
    :class:`Fifo` whose completion callback releases the slot.
    """

    __slots__ = ("sim", "name", "buffer_pages", "slots_in_use", "held_slots",
                 "peak_slots_in_use", "decoder", "_slot_waiters", "_holds")

    def __init__(self, sim, name: str, buffer_pages: int):
        if buffer_pages < 1:
            raise SimulationError("ECC buffer must hold at least one page")
        self.sim = sim
        self.name = name
        self.buffer_pages = buffer_pages
        self.slots_in_use = 0
        #: slots squatted by fault injection (ECC-buffer saturation bursts);
        #: they shrink the usable buffer without holding real pages
        self.held_slots = 0
        #: one entry per active burst: the slots it asked for
        self._holds: List[int] = []
        #: high-water mark of occupied slots (real + held) — a passive
        #: observability counter, never consulted by gating logic
        self.peak_slots_in_use = 0
        self.decoder = Fifo(sim, f"{name}.decoder")
        self._slot_waiters: List[Callable[[], None]] = []

    def _note_occupancy(self) -> None:
        occupied = self.slots_in_use + self.held_slots
        if occupied > self.peak_slots_in_use:
            self.peak_slots_in_use = occupied

    def hold_slots(self, n: int = 0) -> None:
        """Squat ``n`` buffer slots (0 = the whole buffer) so incoming
        transfers gate on the shrunken remainder — the fault-injection model
        of an ECC-buffer saturation burst.  Overlapping bursts add up,
        capped at the buffer."""
        if n < 0:
            raise SimulationError(f"{self.name}: cannot hold {n} slots")
        self._holds.append(n or self.buffer_pages)
        self.held_slots = min(sum(self._holds), self.buffer_pages)
        self._note_occupancy()

    def release_held_slots(self, n: int = 0) -> None:
        """End the saturation burst that held ``n`` slots (as passed to
        :meth:`hold_slots`) and re-kick gated channels if the usable buffer
        grew; other bursts keep their holds."""
        hold = n or self.buffer_pages
        if hold not in self._holds:
            return
        self._holds.remove(hold)
        held = min(sum(self._holds), self.buffer_pages)
        if held < self.held_slots:
            self.held_slots = held
            for waiter in self._slot_waiters:
                waiter()

    def subscribe_on_release(self, callback: Callable[[], None]) -> None:
        """Register a persistent callback invoked whenever a saturation
        burst ends and the usable buffer grows — the channel subscribes
        its ``kick`` so a gated head job re-checks."""
        self._slot_waiters.append(callback)
