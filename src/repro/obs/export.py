"""Trace exporter: Chrome ``trace_event`` JSON, and its reader.

The Chrome format (loadable in ``chrome://tracing`` and Perfetto) maps the
tracer's streams onto one track per hardware resource — channels first,
then decoders, planes, the host link, and a ``requests`` track holding
whole-request lifecycle spans — mirroring the paper's Fig. 7 execution
timeline.  Timestamps are microseconds, the trace_event native unit, so
spans read directly in simulated time.

:func:`validate_chrome_trace` is the schema check the CI trace-smoke job
runs on every exported artefact; it raises ``ValueError`` with a precise
message on the first malformed event.  :func:`load_trace_spans` reads a
file the ``report-trace`` CLI is given, so a file that is not such an
export is a :class:`~repro.errors.ConfigError` there.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from ..errors import ConfigError
from .histogram import percentile
from .trace import SimTracer, SpanEvent

#: Single simulated-device process in the trace.
_PID = 1


def _resource_sort_key(name: str):
    """Deterministic track order: host, channels, decoders, planes, then
    everything else alphabetically; the requests track goes last."""
    groups = ("host", "ch", "ecc", "plane")
    for rank, prefix in enumerate(groups):
        if name.startswith(prefix):
            # numeric suffixes sort numerically: ch2 before ch10
            digits = "".join(c for c in name if c.isdigit())
            return (rank, int(digits) if digits else 0, name)
    if name == "requests":
        return (len(groups) + 1, 0, name)
    return (len(groups), 0, name)


def _span_dict(ev: SpanEvent, tid: int) -> dict:
    args = {"tag": ev.tag}
    if ev.kind:
        args["kind"] = ev.kind
    if ev.request_id is not None:
        args["request"] = ev.request_id
    return {
        "name": ev.label,
        "cat": ev.tag,
        "ph": "X",
        "ts": ev.start_us,
        "dur": ev.duration_us,
        "pid": _PID,
        "tid": tid,
        "args": args,
    }


def chrome_trace(tracer: SimTracer, title: str = "repro-ssd") -> dict:
    """Render a tracer to a Chrome ``trace_event`` JSON object: one track
    per resource from the occupancy stream, plus the request spans."""
    spans: List[SpanEvent] = tracer.resource_spans + tracer.request_spans
    tracks = sorted({ev.resource for ev in spans}, key=_resource_sort_key)
    if tracer.instants:
        tracks.append("sim")
    tids: Dict[str, int] = {name: i for i, name in enumerate(tracks)}

    events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": title},
    }]
    for name, tid in tids.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
            "args": {"name": name},
        })
        events.append({
            "name": "thread_sort_index", "ph": "M", "pid": _PID, "tid": tid,
            "args": {"sort_index": tid},
        })
    events += [_span_dict(ev, tids[ev.resource]) for ev in spans]
    for inst in tracer.instants:
        event = {
            "name": inst.name, "ph": "i", "s": "t",
            "ts": inst.ts_us, "pid": _PID, "tid": tids["sim"],
            "args": inst.args_dict(),
        }
        if inst.request_id is not None:
            event["args"]["request"] = inst.request_id
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs"},
    }


def write_chrome_trace(path, tracer: SimTracer,
                       title: str = "repro-ssd") -> Path:
    """Export a tracer as Chrome-loadable JSON; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(tracer, title=title)))
    return path


def validate_chrome_trace(data: dict) -> dict:
    """Check an exported trace against the ``trace_event`` schema.

    Raises ``ValueError`` naming the first offending event; returns a
    summary ``{"events": n, "spans": n, "tracks": [...]}`` on success.
    """
    if not isinstance(data, dict) or "traceEvents" not in data:
        raise ValueError("trace must be a JSON object with 'traceEvents'")
    events = data["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty list")
    thread_names: Dict[int, str] = {}
    spans = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "M", "i", "C", "B", "E"):
            raise ValueError(f"event {i}: unsupported phase {ph!r}")
        if "name" not in ev:
            raise ValueError(f"event {i}: missing 'name'")
        args = ev.get("args", {})
        if not isinstance(args, dict):
            raise ValueError(f"event {i}: 'args' must be an object")
        if ph == "M":
            if ev["name"] not in ("process_name", "thread_name",
                                  "thread_sort_index", "process_sort_index"):
                raise ValueError(
                    f"event {i}: unknown metadata {ev['name']!r}"
                )
            if ev["name"] == "thread_name":
                tid = ev.get("tid", 0)
                if not (isinstance(tid, (int, float))
                        and isinstance(args.get("name"), str)):
                    raise ValueError(f"event {i}: thread_name needs a "
                                     "numeric 'tid' and a string args.name")
                thread_names[tid] = args["name"]
            continue
        for key in ("ts", "pid", "tid"):
            if not isinstance(ev.get(key), (int, float)):
                raise ValueError(f"event {i}: missing numeric {key!r}")
        if ev["ts"] < 0:
            raise ValueError(f"event {i}: negative timestamp {ev['ts']}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event {i}: complete event needs dur >= 0")
            spans += 1
    return {
        "events": len(events),
        "spans": spans,
        "tracks": [thread_names[t] for t in sorted(thread_names)],
    }


# --- loading (report-trace CLI) -------------------------------------------


def load_trace_spans(path) -> List[dict]:
    """Read the span records back from a Chrome ``trace_event`` export.

    Returns flat dicts with ``track``, ``name``, ``tag``, ``start_us`` and
    ``dur_us`` keys — enough for the ``report-trace`` summary table.  A
    file that cannot be read, or that fails :func:`validate_chrome_trace`,
    is a :class:`~repro.errors.ConfigError`.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
        validate_chrome_trace(data)
    except (OSError, ValueError) as exc:
        raise ConfigError(
            f"{path}: not a Chrome trace_event JSON export ({exc})") from None
    events = data["traceEvents"]
    names = {ev.get("tid", 0): ev["args"]["name"] for ev in events
             if ev.get("ph") == "M" and ev.get("name") == "thread_name"}
    return [{
        "track": names.get(ev.get("tid"), str(ev.get("tid"))),
        "name": ev.get("name", ""),
        "tag": (ev.get("args") or {}).get("tag", ev.get("cat", "")),
        "start_us": float(ev["ts"]),
        "dur_us": float(ev["dur"]),
    } for ev in events if ev.get("ph") == "X"]


def summarize_spans(spans: List[dict]) -> List[dict]:
    """Per-track rollup rows for the ``report-trace`` table.

    Alongside busy time and utilisation, each row carries the span-duration
    tail (``p99_us`` / ``p999_us`` via nearest rank) so a long-tailed track
    (one slow decode among thousands of fast ones) stands out even when its
    mean looks healthy.
    """
    per_track: Dict[str, dict] = {}
    for span in spans:
        row = per_track.setdefault(span["track"], {
            "track": span["track"], "spans": 0, "busy_us": 0.0,
            "first_us": span["start_us"], "last_us": 0.0, "tags": {},
            "durs": [],
        })
        row["spans"] += 1
        row["busy_us"] += span["dur_us"]
        row["durs"].append(span["dur_us"])
        row["first_us"] = min(row["first_us"], span["start_us"])
        row["last_us"] = max(row["last_us"],
                             span["start_us"] + span["dur_us"])
        tag = span["tag"] or "?"
        row["tags"][tag] = row["tags"].get(tag, 0.0) + span["dur_us"]
    rows = []
    for name in sorted(per_track, key=_resource_sort_key):
        row = per_track[name]
        span = row["last_us"] - row["first_us"]
        tags = " ".join(
            f"{tag}:{us:.0f}" for tag, us in
            sorted(row["tags"].items(), key=lambda kv: -kv[1])
        )
        durs = sorted(row["durs"])
        rows.append({
            "track": name,
            "spans": row["spans"],
            "busy_us": row["busy_us"],
            "util": row["busy_us"] / span if span > 0 else 0.0,
            "window_us": span,
            "p99_us": percentile(durs, 99.0),
            "p999_us": percentile(durs, 99.9),
            "by_tag_us": tags,
        })
    return rows


def longest_spans(spans: List[dict], top: int = 10) -> List[dict]:
    """The ``top`` longest spans, for the report's hot-spot table."""
    ranked = sorted(spans, key=lambda s: -s["dur_us"])[:top]
    return [
        {"track": s["track"], "name": s["name"], "tag": s["tag"],
         "start_us": s["start_us"], "dur_us": s["dur_us"]}
        for s in ranked
    ]
