"""Streaming telemetry plumbing: JSONL sinks and live status lines.

This module is deliberately dependency-free (stdlib only) so both the
campaign progress layer (:mod:`repro.campaign.progress`) and ad-hoc tools
can use it without import cycles.  The campaign reporters turn per-cell
completions into :func:`JsonlSink.emit` records or a single rewriting
terminal line (:func:`live_line`); wall-clock timestamps here are real
time, not simulated time — telemetry describes the *campaign*, the tracer
describes the *simulation*.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Optional, TextIO, Union


class JsonlSink:
    """Append-only JSON-lines writer over a path or an open stream.

    Each :meth:`emit` writes one self-contained JSON object per line and
    flushes, so a consumer can tail the file while the campaign runs.
    The sink owns (and closes) the file handle only when constructed from
    a path.  Emits after :meth:`close` are dropped, not raised: shutdown
    paths may race a final event.
    """

    def __init__(self, target: Union[str, Path, TextIO]):
        if isinstance(target, (str, Path)):
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream: TextIO = path.open("w")
            self._owns = True
        else:
            self._stream = target
            self._owns = False
        self.emitted = 0

    @property
    def closed(self) -> bool:
        return self._stream.closed

    def emit(self, record: dict) -> None:
        if self._stream.closed:
            return
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self._stream.flush()
        self.emitted += 1

    def close(self) -> None:
        if self._owns and not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def format_duration(seconds: float) -> str:
    """Compact human duration: 0.42s, 12.3s, 4m08s, 1h02m."""
    if seconds < 10:
        return f"{seconds:.2f}s"
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def live_line(done: int, total: int, cached: int, failed: int,
              elapsed_s: float, last_label: str = "",
              last_s: Optional[float] = None, width: int = 100) -> str:
    """One rewriting status line for a running campaign.

    The ETA extrapolates from *executed* (non-cached) cells only, since
    cache hits are effectively free.  On the first tick — nothing done
    yet, or only cache hits, or a clock that has not advanced — there is
    no basis for extrapolation, so the ETA is simply omitted instead of
    dividing by zero (or by a negative count when a racing caller reports
    a cache hit before bumping ``done``).
    """
    executed = max(done - cached, 0)
    remaining = max(total - done, 0)
    if executed > 0 and remaining > 0 and elapsed_s > 0:
        eta = f" eta {format_duration(elapsed_s / executed * remaining)}"
    else:
        eta = ""
    elapsed_s = max(elapsed_s, 0.0)
    bits = [f"[campaign {done}/{total}]"]
    if cached:
        bits.append(f"{cached} cached")
    if failed:
        bits.append(f"{failed} FAILED")
    bits.append(f"{format_duration(elapsed_s)}{eta}")
    if last_label:
        took = "" if last_s is None else f" ({format_duration(last_s)})"
        bits.append(f"| {last_label}{took}")
    line = " ".join(bits)
    return line[:width].ljust(width)


class LiveLineWriter:
    """Carriage-return rewriting writer with a clean final newline."""

    def __init__(self, stream: Optional[TextIO] = None):
        self.stream = stream or sys.stderr
        self._dirty = False

    def update(self, line: str) -> None:
        self.stream.write("\r" + line)
        self.stream.flush()
        self._dirty = True

    def finish(self, line: str = "") -> None:
        if line:
            self.update(line)
        if self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False


def wall_clock() -> float:
    """Indirection for tests: current wall-clock time in seconds."""
    return time.time()
