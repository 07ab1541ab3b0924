"""Periodic time-sliced counter snapshots (SLO events per window).

End-of-run aggregates say *that* a policy burned its error budget; the
per-window series says *when*.  :class:`SnapshotRecorder` splits a run
into fixed windows of ``interval_us`` and stores, per window, the change
of the run's counters over it — a :class:`UsageSnapshot` per window, the
input of the burn-rate rules (:func:`~repro.obs.slo.windows_from_snapshots`).

The counters (:data:`WINDOW_COUNTERS`: every SLO event of
:data:`~repro.obs.slo.EVENT_COUNTERS` and the host bytes) are read off
:class:`~repro.ssd.metrics.SimMetrics`, the one source of the run's
counts; the recorder schedules nothing.  ``SSDSimulator.run`` pauses the
event loop just before each window edge and calls
:meth:`SnapshotRecorder.close_window`, which stores each counter's change
since the window opened.  A counter bumped at time ``t`` lands in the
window holding ``t``; an event at an edge belongs to the later window.
A run with snapshots on is bit-identical to one without.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError
from .slo import EVENT_COUNTERS

#: Window counter name -> the SimMetrics field it is the change of: every
#: SLO event (:data:`~repro.obs.slo.EVENT_COUNTERS`) and the two host-byte
#: counters.
WINDOW_COUNTERS: Tuple[Tuple[str, str], ...] = tuple(
    EVENT_COUNTERS.items()) + (("host_read_bytes", "host_read_bytes"),
                               ("host_write_bytes", "host_write_bytes"))


@dataclass
class UsageSnapshot:
    """One window of counter activity."""

    start_us: float
    end_us: float
    #: each :data:`WINDOW_COUNTERS` counter's change over this window
    counters: Dict[str, float] = field(default_factory=dict)


class SnapshotRecorder:
    """Accumulates per-window counter changes.

    Call :meth:`close_window` at each pause before :attr:`window_end`, and
    :meth:`finalize` to close the last window and freeze the series.
    ``metrics`` is anything with the :data:`WINDOW_COUNTERS` fields (the
    simulator passes its :class:`~repro.ssd.metrics.SimMetrics`).
    """

    def __init__(self, interval_us: float):
        if not interval_us > 0:  # NaN too: it would never close a window
            raise SimulationError(
                f"snapshot interval must be positive, got {interval_us}"
            )
        self.interval_us = interval_us
        #: counter changes of the windows in which some counter changed
        self._counters: Dict[int, Dict[str, float]] = {}
        #: counter totals when the open window opened
        self._opened: Dict[str, float] = {
            name: 0 for name, _attr in WINDOW_COUNTERS}
        #: index of the window the counters accumulate in, and its end
        self._open = 0
        self.window_end = interval_us
        self._snapshots: Optional[List[UsageSnapshot]] = None

    def close_window(self, metrics, next_us: float) -> None:
        """Store the open window's counter changes and open the window
        holding ``next_us``, the next event's time (windows skipped on
        the way saw no event, so no counter changed in them)."""
        self._store(metrics)
        index = max(self._open + 1, int(next_us // self.interval_us))
        self._open = index
        self.window_end = (index + 1) * self.interval_us

    def _store(self, metrics) -> None:
        totals = {name: getattr(metrics, attr)
                  for name, attr in WINDOW_COUNTERS}
        if totals != self._opened:
            opened = self._opened
            self._counters[self._open] = {
                name: float(value - opened[name])
                for name, value in totals.items()}
            self._opened = totals

    # --- results ----------------------------------------------------------

    def finalize(self, elapsed_us: float, metrics) -> None:
        """Close the open window and freeze the series covering
        [0, elapsed_us]."""
        self._store(metrics)
        # An elapsed time landing exactly on a window edge closes that
        # window rather than opening an empty one after it.
        span_windows = int(math.ceil(elapsed_us / self.interval_us)) - 1
        last = max([span_windows, 0] + list(self._counters))
        zeros = dict.fromkeys(self._opened, 0.0)
        snapshots = []
        for index in range(last + 1):
            start = index * self.interval_us
            end = min(start + self.interval_us, max(elapsed_us, start))
            snapshots.append(UsageSnapshot(
                start_us=start,
                end_us=end if end > start else start + self.interval_us,
                counters=self._counters.get(index, dict(zeros)),
            ))
        self._snapshots = snapshots

    @property
    def finalized(self) -> bool:
        return self._snapshots is not None

    def snapshots(self) -> List[UsageSnapshot]:
        if self._snapshots is None:
            raise SimulationError(
                "snapshots not finalized; run the simulation first"
            )
        return list(self._snapshots)
