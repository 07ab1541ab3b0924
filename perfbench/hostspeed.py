"""Host speed, sampled while a timed region runs.

The benchmark runs on shared hosts whose CPU speed drifts by tens of
percent over seconds to minutes.  A fixed pure-Python loop (a *tick*)
timed before and after a region tracks that drift poorly, because the
speed has moved by the time the region ends; timed *during* the region,
it tracks it closely.  :class:`Sampler` times three ticks as the region
starts, three as it ends, and one every ``PERIOD_S`` seconds inside it,
from a ``SIGALRM`` handler, so the ticks run in the measured process
between the program's own steps.  The ticks inside the region are
subtracted from its wall time, and the rest is scaled to the reference
speed: seconds as on a host where one tick takes ``REFERENCE_TICK_S``.

This module imports nothing from the program, so a change to the
program cannot move the reference.  It runs in the main thread only
(``signal.signal`` requires it).
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: integer-arithmetic iterations of one tick (about 4 ms of pure Python)
TICK_ITERATIONS = 50_000
#: a tick's duration on the reference host; scaled seconds read as there
REFERENCE_TICK_S = 0.004
#: host seconds between two ticks inside a region
PERIOD_S = 0.1
#: ticks timed at each end of a region, so a short region has some too
END_TICKS = 3


def tick() -> float:
    """Seconds one fixed pure-Python loop takes now."""
    started = time.perf_counter()
    total = 0
    for i in range(TICK_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - started


class Sampler:
    """Context manager: the wall time of a region and the host speed
    during it.  Not reentrant; one region at a time per process."""

    def __init__(self) -> None:
        self.ticks: List[float] = []
        #: seconds the ticks inside the region took
        self.inside_s = 0.0
        self.wall_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        spent = tick()
        self.ticks.append(spent)
        self.inside_s += spent

    def __enter__(self) -> "Sampler":
        self.ticks = [tick() for _ in range(END_TICKS)]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall_s = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        self.ticks += [tick() for _ in range(END_TICKS)]
        return False

    @property
    def seconds(self) -> float:
        """The region's own host seconds: wall time minus its ticks."""
        return self.wall_s - self.inside_s

    @property
    def speed(self) -> float:
        """Reference tick time over the mean tick time of this region."""
        return REFERENCE_TICK_S / statistics.fmean(self.ticks)

    @property
    def scaled_s(self) -> float:
        """The region's own seconds at the reference speed."""
        return self.seconds * self.speed
