"""Event kernel: a priority-queue discrete-event scheduler.

Deliberately minimal — the simulator needs only "call this function at time
t" with FIFO tie-breaking.  All times are microseconds (see
:mod:`repro.units`).

The run loop drains all events that share the current timestamp as one
batch (the read pipeline schedules many same-time completions, and
popping them together keeps the Python-level loop overhead off the common
case).  Ordering is unchanged from a one-event-at-a-time loop: the heap
yields equal-time entries in tie-break order, and work scheduled *at the
current timestamp by a batch callback* receives a larger tie-break value,
so it lands in the next drain round — exactly where a one-at-a-time loop
would have processed it.
"""

from __future__ import annotations

import heapq
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
    (:meth:`run`) drains events until the queue empties, a time limit is
    reached, or a caller-provided stop condition returns True.
    """

    def __init__(self):
        self.now: float = 0.0
        self.events = EventQueue()
        self._stopped = False
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
        stop_condition: Optional[Callable[[], bool]] = None,
        max_events: int = 100_000_000,
    ) -> None:
        """Process events in time order, draining same-time batches.

        ``until`` bounds simulated time; ``stop_condition`` is checked after
        every event; ``max_events`` bounds *this call* (the lifetime total
        remains available as :attr:`processed_events`), so resumable
        simulators get the full budget on every run.
        """
        self._stopped = False
        processed_this_run = 0
        # bind the heap locally: this loop is the simulator's innermost
        # hot path, and EventQueue.push always mutates this same list
        heap = self.events._heap
        pop = heapq.heappop
        push = heapq.heappush
        batch: list = []
        # the lifetime total is folded in once on exit (the finally below)
        # instead of per event; nothing observes it mid-run
        try:
            while heap and not self._stopped:
                time = heap[0][0]
                if until is not None and time > until:
                    self.now = until
                    break
                if time < self.now:
                    raise SimulationError("event queue went backwards in time")
                self.now = time
                entry = pop(heap)
                if not heap or heap[0][0] != time:
                    # singleton fast path: nothing shares this timestamp, so
                    # skip the batch bookkeeping entirely
                    entry[2]()
                    processed_this_run += 1
                    if processed_this_run > max_events:
                        raise SimulationError(f"exceeded {max_events} events")
                    if stop_condition is not None and stop_condition():
                        break
                    continue
                # drain everything already queued at exactly this timestamp,
                # in tie-break (FIFO) order; same-time work scheduled by a
                # batch callback has a larger tie-break and is collected
                # next round
                del batch[:]
                batch.append(entry)
                while heap and heap[0][0] == time:
                    batch.append(pop(heap))
                halted = False
                for index, (_t, _seq, callback) in enumerate(batch):
                    callback()
                    processed_this_run += 1
                    if processed_this_run > max_events:
                        # restore the unprocessed tail (original tie-breaks)
                        # so a caught overrun leaves the queue resumable
                        for entry in batch[index + 1:]:
                            push(heap, entry)
                        raise SimulationError(f"exceeded {max_events} events")
                    if self._stopped or (stop_condition is not None
                                         and stop_condition()):
                        for entry in batch[index + 1:]:
                            push(heap, entry)
                        halted = True
                        break
                if halted:
                    break
        finally:
            self._processed += processed_this_run

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    @property
    def processed_events(self) -> int:
        return self._processed
