"""Event kernel: a priority-queue discrete-event scheduler.

Deliberately minimal — the simulator needs only "call this function at time
t" with FIFO tie-breaking.  All times are microseconds (see
:mod:`repro.units`).

Order contract: :meth:`Simulator.run` pops one event at a time, so events
fire in ``(time, push order)`` order.  Work a callback schedules at the
current timestamp fires after everything already queued at that timestamp
(it gets a larger tie-break), and a run cut at any ``until`` and resumed
fires the same sequence as an uncut one.  ``tests/test_ssd_events.py``
checks this on random schedules against a reference scheduler;
``tests/test_golden.py`` pins its consequences bit for bit.

Same-timestamp events are not drained as a batch: on the benchmark's
seed-7 drives such batches hold 18.6 % and 19.6 % of the worn-read RiFSSD
and SENC events (3.5 and 3.1 events per batch) and 0.7 % of
fresh-write's, and draining them together bought no measurable pages/s.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Optional

from ..errors import SimulationError


class EventQueue:
    """Min-heap of ``(time, tie_break, callback)`` with stable ordering.

    ``tie_break`` is an explicit monotonic counter assigned at push time:
    equal-time events always pop in submission (FIFO) order, regardless of
    how the heap happens to sift them.  This is load-bearing — resource
    completion order, and through it every simulated latency, depends on
    it — and pinned by ``tests/test_ssd_events.py``.
    """

    def __init__(self):
        self._heap = []
        #: next tie-break value; strictly increases with every push and is
        #: never reused, so (time, tie_break) is a total order
        self.tie_break = 0

    def push(self, time: float, callback: Callable[[], None]) -> None:
        seq = self.tie_break
        self.tie_break = seq + 1
        heapq.heappush(self._heap, (time, seq, callback))

    def pop(self):
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None


class Simulator:
    """Owns the clock and the event queue.

    Components schedule work with :meth:`at` / :meth:`after`; the main loop
    (:meth:`run`) fires events until the queue empties or a time limit is
    reached.
    """

    def __init__(self):
        self.now: float = 0.0
        self.events = EventQueue()
        self._processed = 0

    # --- scheduling -----------------------------------------------------------

    def at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        self.events.push(time, callback)

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.events.push(self.now + delay, callback)

    # --- main loop ----------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: int = 100_000_000,
    ) -> None:
        """Process events one at a time in ``(time, tie_break)`` order.

        ``until`` bounds simulated time (events at exactly ``until`` still
        fire) and may not lie before :attr:`now`: the clock never runs
        backwards.  ``max_events`` bounds *this call* (the lifetime total
        remains available as :attr:`processed_events`), so resumable
        simulators get the full budget on every run.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}: the clock is already at {self.now}"
            )
        processed_this_run = 0
        # bind the heap locally: this loop is the simulator's innermost
        # hot path, and EventQueue.push always mutates this same list
        heap = self.events._heap
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        now = self.now
        # the lifetime total is folded in once on exit (the finally below)
        # instead of per event; nothing observes it mid-run
        try:
            while heap:
                # pop first; an entry past the horizon goes back unchanged
                # ((time, tie_break) is a total order, so the pop order
                # is too)
                entry = pop(heap)
                time = entry[0]
                if time > horizon:
                    heapq.heappush(heap, entry)
                    self.now = until
                    break
                if time < now:
                    heapq.heappush(heap, entry)
                    raise SimulationError("event queue went backwards in time")
                self.now = now = time
                entry[2]()
                processed_this_run += 1
                if processed_this_run > max_events:
                    raise SimulationError(f"exceeded {max_events} events")
        finally:
            self._processed += processed_this_run

    @property
    def processed_events(self) -> int:
        return self._processed
