"""Periodic time-sliced metric snapshots (bandwidth / ECCWAIT time-series).

End-of-run aggregates say *that* a policy lost bandwidth; the per-window
series says *when*.  :class:`SnapshotRecorder` bins the simulator's channel
occupancy stream into fixed windows of ``interval_us`` and pairs each
window with the counter deltas (page reads, retries, host bytes, faults)
that landed in it — a :class:`UsageSnapshot` per window, i.e. Fig. 18 as a
time-series plus a bandwidth curve.

The recorder is completely passive: it consumes the same resource probes
the tracer does and never touches the event queue, so a run with
snapshots enabled is bit-identical to one without.  Spans crossing a
window boundary are split exactly, so summing any tag over all windows
reproduces the end-of-run :class:`~repro.ssd.metrics.ChannelUsage` total
to float precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import SimulationError
from ..units import bytes_per_us_to_mb_per_s


@dataclass
class UsageSnapshot:
    """One window of channel-time and counter activity."""

    start_us: float
    end_us: float
    channels: int
    #: channel busy/blocked time by Fig.-18 tag (COR/UNCOR/WRITE/GC/ECCWAIT)
    busy_us: Dict[str, float] = field(default_factory=dict)
    #: counter deltas binned into this window (page_reads, host_read_bytes, ...)
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
    """Accumulates per-window channel busy time and counter deltas.

    Wire :meth:`observe_span` as a channel probe
    (:meth:`~repro.ssd.resources.Fifo.attach_probe`) and call
    :meth:`note` from the metric hooks; :meth:`finalize` closes the last
    partial window and freezes the series.
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
        self._counters: Dict[int, Dict[str, float]] = {}
        self._snapshots: Optional[List[UsageSnapshot]] = None
        # Open-window caches for the two hook hot paths.  These hooks fire
        # once per channel span / once per read plan — ~100k times in a
        # short run — and simulated time only moves forward, so almost
        # every call lands in the same window as the previous one.  The
        # cached (lo, hi, dict) triple turns the common case into two
        # float compares, no division and no index lookup.
        self._span_lo = 0.0
        self._span_hi = interval_us
        self._span_busy = self._busy[0] = {}
        self._cnt_lo = 0.0
        self._cnt_hi = interval_us
        self._cnt_per = self._counters[0] = {}

    # --- recording hooks --------------------------------------------------

    def observe_span(self, resource: str, tag: str, start_us: float,
                     end_us: float, label: Optional[str] = None) -> None:
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

    def note(self, name: str, t_us: float, value: float = 1) -> None:
        """Bin a counter increment (e.g. one page read, N host bytes)."""
        per = self.window_counters(t_us)
        per[name] = per.get(name, 0.0) + value

    def window_counters(self, t_us: float) -> Dict[str, float]:
        """The mutable counter dict for ``t_us``'s window — lets a hook
        that bins several counters at the same instant (per-plan
        accounting does three) pay the window lookup once."""
        if self._cnt_lo <= t_us < self._cnt_hi:
            return self._cnt_per
        index = int(t_us // self.interval_us)
        per = self._counters.get(index)
        if per is None:
            per = self._counters[index] = {}
        self._cnt_lo = index * self.interval_us
        self._cnt_hi = self._cnt_lo + self.interval_us
        self._cnt_per = per
        return per

    # --- results ----------------------------------------------------------

    def finalize(self, elapsed_us: float) -> None:
        """Freeze the series covering [0, elapsed_us]."""
        # An elapsed time landing exactly on a window edge closes that
        # window rather than opening an empty one after it.
        span_windows = int(math.ceil(elapsed_us / self.interval_us)) - 1
        last = max([span_windows, 0] + list(self._busy) + list(self._counters))
        snapshots = []
        for index in range(last + 1):
            start = index * self.interval_us
            end = min(start + self.interval_us, max(elapsed_us, start))
            snapshots.append(UsageSnapshot(
                start_us=start,
                end_us=end if end > start else start + self.interval_us,
                channels=self.channels,
                busy_us=self._busy.get(index, {}),
                counters=self._counters.get(index, {}),
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
