"""Structured tracing: per-request spans and resource occupancy streams.

:class:`SimTracer` is the one recorder every instrumentation hook in the
simulator feeds.  It keeps three deterministic, append-only streams:

* ``events`` — the read-path *phase spans* (SENSE / TRANSFER / DECODE /
  FAULT) the simulator records per traced page read, labelled with the
  logical page and owning host request.  This is the stream the Fig. 7/8
  timeline experiments consume (:meth:`SimTracer.by_resource`).
* ``resource_spans`` — *every* occupancy interval of the instrumented
  hardware resources (channels, planes, host link, decoders), including
  WRITE/GC/ERASE traffic and the channels' ECCWAIT blocked intervals.
  Summing this stream per channel reproduces the Fig.-18
  :class:`~repro.ssd.metrics.ChannelUsage` breakdown exactly — the
  reconciliation test of the observability layer.
* ``instants`` + ``request_spans`` — point events (request queued/done,
  the RP/RVS plan decision with its retry-hop summary, die commands) and
  one whole-lifecycle span per traced host request.

Everything here is RNG-free and passive: recording only reads the clock,
never schedules events, so a traced run is bit-identical to an untraced
one.  Sampling (``TraceConfig.sample_every``) keys off the host request
*index*, which is deterministic, so a sampled trace is a strict subset of
the full one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ConfigError


@dataclass(frozen=True)
class TraceConfig:
    """What to trace.  Off by default; tracing never perturbs results.

    ``sample_every=k`` traces host requests whose submission index is a
    multiple of k (request 0 is always traced); resource occupancy and
    blocked intervals are not per-request and are either all captured
    (``trace_resources``) or not at all.  ``max_events`` caps the total
    event count across all streams — beyond it events are counted in
    :attr:`SimTracer.dropped` instead of stored, so a runaway trace
    degrades to a counter rather than exhausting memory.
    """

    enabled: bool = False
    sample_every: int = 1
    max_events: Optional[int] = None
    trace_resources: bool = True
    trace_requests: bool = True

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ConfigError(
                f"sample_every must be >= 1, got {self.sample_every}"
            )
        if self.max_events is not None and self.max_events < 1:
            raise ConfigError(
                f"max_events must be >= 1 or None, got {self.max_events}"
            )


@dataclass(frozen=True)
class SpanEvent:
    """One timed interval on a named track.

    Field names are shared with the legacy ``TimelineEvent`` (``label``,
    ``resource``, ``start_us``, ``end_us``, ``tag``) so pre-existing
    consumers keep working; ``kind`` and ``request_id`` are the structured
    additions.
    """

    label: str
    resource: str
    start_us: float
    end_us: float
    tag: str
    kind: str = ""
    request_id: Optional[int] = None

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass(frozen=True)
class InstantEvent:
    """A point-in-time marker (request queued/done, RP decision, ...)."""

    name: str
    ts_us: float
    request_id: Optional[int] = None
    args: tuple = ()  # canonicalised (key, value) pairs, JSON-compatible

    def args_dict(self) -> dict:
        return dict(self.args)


def _freeze_args(args: Optional[dict]) -> tuple:
    if not args:
        return ()
    return tuple(sorted(args.items()))


class SimTracer:
    """Deterministic recorder of spans, occupancies, and instant events.

    Constructing a tracer directly (``SimTracer()``) enables tracing of
    everything — the behaviour of the legacy ``TimelineTracer``.  Pass a
    :class:`TraceConfig` to sample or bound the trace.
    """

    def __init__(self, config: Optional[TraceConfig] = None):
        self.config = config or TraceConfig(enabled=True)
        self.events: List[SpanEvent] = []
        self.resource_spans: List[SpanEvent] = []
        self.request_spans: List[SpanEvent] = []
        self.instants: List[InstantEvent] = []
        #: events discarded once ``max_events`` was hit
        self.dropped: int = 0

    # --- admission --------------------------------------------------------

    def trace_request(self, request_index: int) -> bool:
        """Should the request with this submission index be traced?"""
        return (self.config.enabled
                and request_index % self.config.sample_every == 0)

    @property
    def total_events(self) -> int:
        return (len(self.events) + len(self.resource_spans)
                + len(self.request_spans) + len(self.instants))

    def _admit(self) -> bool:
        budget = self.config.max_events
        if budget is not None and self.total_events >= budget:
            self.dropped += 1
            return False
        return True

    # --- recording hooks --------------------------------------------------

    def record(self, label: str, resource: str, start_us: float,
               end_us: float, tag: str, kind: str = "",
               request_id: Optional[int] = None) -> None:
        """Record one read-path phase span (legacy ``TimelineTracer`` API)."""
        if self._admit():
            self.events.append(SpanEvent(label, resource, start_us, end_us,
                                         tag, kind, request_id))

    def record_resource(self, resource: str, tag: str, start_us: float,
                        end_us: float, label: Optional[str] = None) -> None:
        """Probe target for :meth:`~repro.ssd.resources.Fifo.attach_probe`:
        one occupancy (or ECCWAIT blocked) interval of a hardware
        resource."""
        if self._admit():
            self.resource_spans.append(SpanEvent(
                label or tag, resource, start_us, end_us, tag,
                kind="occupancy",
            ))

    def record_request_span(self, request_id: int, label: str,
                            start_us: float, end_us: float,
                            tag: str) -> None:
        """One whole host-request lifecycle (queued -> last page done)."""
        if self._admit():
            self.request_spans.append(SpanEvent(
                label, "requests", start_us, end_us, tag,
                kind="request", request_id=request_id,
            ))

    def record_instant(self, name: str, ts_us: float,
                       request_id: Optional[int] = None,
                       args: Optional[dict] = None) -> None:
        if self._admit():
            self.instants.append(InstantEvent(name, ts_us, request_id,
                                              _freeze_args(args)))

    # --- views ------------------------------------------------------------

    def by_resource(self) -> Dict[str, List[SpanEvent]]:
        """Read-path phase spans grouped by resource (legacy view)."""
        out: Dict[str, List[SpanEvent]] = {}
        for ev in self.events:
            out.setdefault(ev.resource, []).append(ev)
        return out

    def resource_busy_by_tag(self) -> Dict[str, Dict[str, float]]:
        """``{resource: {tag: total_us}}`` over the full occupancy stream —
        the numbers that must reconcile with
        :meth:`~repro.ssd.simulator.SSDSimulator.channel_usage`."""
        out: Dict[str, Dict[str, float]] = {}
        for ev in self.resource_spans:
            per = out.setdefault(ev.resource, {})
            per[ev.tag] = per.get(ev.tag, 0.0) + ev.duration_us
        return out

    def traced_request_ids(self) -> List[int]:
        return sorted({ev.request_id for ev in self.request_spans
                       if ev.request_id is not None})
