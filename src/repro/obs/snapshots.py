"""Periodic time-sliced metric snapshots (bandwidth / ECCWAIT time-series).

End-of-run aggregates say *that* a policy lost bandwidth; the per-window
series says *when*.  :class:`SnapshotRecorder` bins the simulator's channel
occupancy stream into fixed windows of ``interval_us`` and pairs each
window with the change of the run's counters over it — a
:class:`UsageSnapshot` per window, i.e. Fig. 18 as a time-series plus a
bandwidth curve.

The recorder has two inputs and schedules nothing.  Channel busy time
comes from the channel probes; spans crossing a window edge are split
exactly, so summing any tag over all windows reproduces the end-of-run
:class:`~repro.ssd.metrics.ChannelUsage` total to float precision.  The
counters (:data:`WINDOW_COUNTERS`: every SLO event of
:data:`~repro.obs.slo.EVENT_COUNTERS` and the host bytes) are read off
:class:`~repro.ssd.metrics.SimMetrics`: ``SSDSimulator.run`` pauses the
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
from ..units import bytes_per_us_to_mb_per_s
from .slo import EVENT_COUNTERS

#: Window counter name -> the SimMetrics field it is the change of: every
#: SLO event (:data:`~repro.obs.slo.EVENT_COUNTERS`) and the two host-byte
#: counters.
WINDOW_COUNTERS: Tuple[Tuple[str, str], ...] = tuple(
    EVENT_COUNTERS.items()) + (("host_read_bytes", "host_read_bytes"),
                               ("host_write_bytes", "host_write_bytes"))


@dataclass
class UsageSnapshot:
    """One window of channel-time and counter activity."""

    start_us: float
    end_us: float
    channels: int
    #: channel busy/blocked time by Fig.-18 tag (COR/UNCOR/WRITE/GC/ECCWAIT)
    busy_us: Dict[str, float] = field(default_factory=dict)
    #: each :data:`WINDOW_COUNTERS` counter's change over this window
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def window_us(self) -> float:
        return self.end_us - self.start_us

    def usage(self):
        """The window's :class:`~repro.ssd.metrics.ChannelUsage` (idle is
        derived from the wall clock, like the end-of-run aggregate)."""
        from ..ssd.metrics import ChannelUsage  # avoid an import cycle

        busy = self.busy_us
        accounted = sum(busy.values())
        total = self.window_us * self.channels
        return ChannelUsage(
            cor=busy.get("COR", 0.0),
            uncor=busy.get("UNCOR", 0.0),
            write=busy.get("WRITE", 0.0),
            gc=busy.get("GC", 0.0),
            eccwait=busy.get("ECCWAIT", 0.0),
            idle=max(total - accounted, 0.0),
        )

    def read_bandwidth_mb_s(self) -> float:
        if self.window_us <= 0:
            raise SimulationError("empty snapshot window")
        return bytes_per_us_to_mb_per_s(
            self.counters.get("host_read_bytes", 0.0) / self.window_us
        )

    def to_dict(self) -> dict:
        return {
            "start_us": self.start_us,
            "end_us": self.end_us,
            "channels": self.channels,
            "busy_us": dict(self.busy_us),
            "counters": dict(self.counters),
        }


class SnapshotRecorder:
    """Accumulates per-window channel busy time and counter changes.

    Wire :meth:`observe_span` as a channel probe
    (:meth:`~repro.ssd.resources.Fifo.attach_probe`), call
    :meth:`close_window` at each pause before :attr:`window_end`, and
    :meth:`finalize` to close the last window and freeze the series.
    ``metrics`` is anything with the :data:`WINDOW_COUNTERS` fields (the
    simulator passes its :class:`~repro.ssd.metrics.SimMetrics`).
    """

    def __init__(self, interval_us: float, channels: int):
        if interval_us <= 0:
            raise SimulationError(
                f"snapshot interval must be positive, got {interval_us}"
            )
        if channels < 1:
            raise SimulationError("need at least one channel")
        self.interval_us = interval_us
        self.channels = channels
        self._busy: Dict[int, Dict[str, float]] = {}
        #: counter changes of the windows in which some counter changed
        self._counters: Dict[int, Dict[str, float]] = {}
        #: counter totals when the open window opened
        self._opened: Dict[str, float] = {
            name: 0 for name, _attr in WINDOW_COUNTERS}
        #: index of the window the counters accumulate in, and its end
        self._open = 0
        self.window_end = interval_us
        self._snapshots: Optional[List[UsageSnapshot]] = None
        # Open-window cache for the span hook: it fires once per channel
        # span, simulated time only moves forward, so almost every span
        # lands in the same window as the previous one.  The cached
        # (lo, hi, dict) triple turns the common case into two float
        # compares, no division and no index lookup.
        self._span_lo = 0.0
        self._span_hi = interval_us
        self._span_busy = self._busy[0] = {}

    # --- recording hooks --------------------------------------------------

    def observe_span(self, resource: str, tag: str, start_us: float,
                     end_us: float, label: Optional[tuple] = None) -> None:
        """Bin one occupancy/blocked interval, splitting across windows."""
        del resource, label
        if start_us >= self._span_lo and end_us <= self._span_hi:
            per = self._span_busy
            per[tag] = per.get(tag, 0.0) + (end_us - start_us)
            return
        self._observe_span_slow(tag, start_us, end_us)

    def _observe_span_slow(self, tag: str, start_us: float,
                           end_us: float) -> None:
        """Split a window-crossing span exactly, then move the cache to
        the window holding its end (span ends arrive in event order)."""
        interval = self.interval_us
        busy = self._busy
        t = start_us
        while t < end_us:
            index = int(t // interval)
            edge = (index + 1) * interval
            chunk_end = edge if edge < end_us else end_us
            per = busy.get(index)
            if per is None:
                per = busy[index] = {}
            per[tag] = per.get(tag, 0.0) + (chunk_end - t)
            t = chunk_end
        index = int(end_us // interval)
        per = busy.get(index)
        if per is None:
            per = busy[index] = {}
        self._span_lo = index * interval
        self._span_hi = self._span_lo + interval
        self._span_busy = per

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
        last = max([span_windows, 0] + list(self._busy) + list(self._counters))
        zeros = dict.fromkeys(self._opened, 0.0)
        snapshots = []
        for index in range(last + 1):
            start = index * self.interval_us
            end = min(start + self.interval_us, max(elapsed_us, start))
            snapshots.append(UsageSnapshot(
                start_us=start,
                end_us=end if end > start else start + self.interval_us,
                channels=self.channels,
                busy_us=self._busy.get(index, {}),
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

    def series(self, key: str) -> List[float]:
        """One counter (or busy tag) as a per-window list — e.g.
        ``series('ECCWAIT')`` or ``series('host_read_bytes')``."""
        out = []
        for snap in self.snapshots():
            if key in snap.busy_us:
                out.append(snap.busy_us[key])
            else:
                out.append(snap.counters.get(key, 0.0))
        return out
