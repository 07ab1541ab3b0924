"""Structured tracing: resource occupancy, request spans and instants.

:class:`SimTracer` is the one recorder the simulator's trace hooks feed.
It keeps three deterministic, append-only streams:

* ``resource_spans`` — *every* occupancy interval of the instrumented
  hardware resources (channels, planes, host link, decoders), including
  WRITE/GC/ERASE traffic and the channels' ECCWAIT blocked intervals,
  recorded once, from the resource probes.  A read job's probe label
  names its page and its request, so the spans of a read carry the
  request id.  Summing this stream per channel reproduces the Fig.-18
  :class:`~repro.ssd.metrics.ChannelUsage` breakdown exactly — the
  reconciliation test of the observability layer.
* ``request_spans`` — one whole-lifecycle span per host request.
* ``instants`` — point events (request queued/done, the RP/RVS plan
  decision with its retry-hop summary).

The read-path *phase view* the Fig. 7/8 timeline experiments consume
(:attr:`SimTracer.events`, :meth:`SimTracer.by_resource`) is not a
stream of its own: it is the part of ``resource_spans`` that belongs to
requests — senses and fault retries on the planes, transfers on the
channels and decodes on the decoders (``ecc<i>.decoder``, from decode
start; a page's decoder wait is the gap between its transfer's end and
its decode's start).

Everything here is RNG-free and passive: recording only reads the clock,
never schedules events, so a traced run is bit-identical to an untraced
one.  A traced run records everything; the busy time per resource and
tag alone is on the resources' counters (``busy_time_by_tag``), which
every run keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class SpanEvent:
    """One timed interval on a named track: a resource occupancy
    (``kind="occupancy"``, with the owning request's id on a read job's
    spans) or a host request's lifecycle (``kind="request"``)."""

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
    """Deterministic recorder of occupancies, request spans and instants."""

    def __init__(self):
        self.resource_spans: List[SpanEvent] = []
        self.request_spans: List[SpanEvent] = []
        self.instants: List[InstantEvent] = []

    # --- recording hooks --------------------------------------------------

    def record_resource(self, resource: str, tag: str, start_us: float,
                        end_us: float, label: Optional[tuple] = None) -> None:
        """Probe target for :meth:`~repro.ssd.resources.Fifo.attach_probe`:
        one occupancy (or ECCWAIT blocked) interval of a hardware
        resource.  ``label`` is ``None`` or, for a read job, the pair
        ``(page label, request id)``."""
        text, request_id = (tag, None) if label is None else label
        self.resource_spans.append(SpanEvent(
            text, resource, start_us, end_us, tag, "occupancy", request_id))

    def record_request_span(self, request_id: int, label: str,
                            start_us: float, end_us: float,
                            tag: str) -> None:
        """One whole host-request lifecycle (queued -> last page done)."""
        self.request_spans.append(SpanEvent(
            label, "requests", start_us, end_us, tag,
            kind="request", request_id=request_id,
        ))

    def record_instant(self, name: str, ts_us: float,
                       request_id: Optional[int] = None,
                       args: Optional[dict] = None) -> None:
        self.instants.append(InstantEvent(name, ts_us, request_id,
                                          _freeze_args(args)))

    # --- views ------------------------------------------------------------

    @property
    def events(self) -> List[SpanEvent]:
        """The read-path phase view: the occupancy spans of the read jobs,
        in recording order (the same :class:`SpanEvent` objects
        ``resource_spans`` holds)."""
        return [ev for ev in self.resource_spans if ev.request_id is not None]

    def by_resource(self) -> Dict[str, List[SpanEvent]]:
        """The phase view (:attr:`events`) grouped by resource."""
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
