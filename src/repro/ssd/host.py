"""Host-side request drivers.

* :class:`ClosedLoopHost` — keeps a fixed number of requests outstanding
  (ignores trace timestamps): the standard way to measure the *capability*
  bandwidth of an SSD, matching the paper's Fig. 6/17 methodology.
* :class:`TimedReplayHost` — honours trace inter-arrival times (open loop):
  useful for latency studies at a fixed offered load.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigError, SimulationError
from ..workloads.trace import Trace


def check_size(owner, name: str, value) -> None:
    """A size such as a driver's ``queue_depth`` / ``max_requests`` is
    ``None`` (the default) or an int >= 1: a zero must not silently run
    the default, and a negative must not issue nothing."""
    if value is not None and (not isinstance(value, int) or value < 1):
        raise ConfigError(f"{type(owner).__name__}.{name} must be None or "
                          f"an int >= 1, got {value!r}")


def check_run_args(where: str, mode: str, queue_depth,
                   time_limit_us) -> None:
    """The host arguments of one run, one rule for
    :meth:`~repro.ssd.simulator.SSDSimulator.run_trace` and ``RunSpec``:
    ``mode`` is ``'closed'`` or ``'timed'``; timed replay issues each
    request at its trace timestamp and keeps no queue, so its
    ``queue_depth`` is ``None`` (a depth there would run exactly as none
    does, yet name a second cell); and ``time_limit_us`` is ``None`` or
    > 0 (a NaN would run with no limit, a zero or negative one would stop
    before the first event)."""
    if mode not in ("closed", "timed"):
        raise ConfigError(f"{where}: unknown host mode {mode!r}")
    if mode == "timed" and queue_depth is not None:
        raise ConfigError(f"{where}: queue_depth must be None in timed mode "
                          f"(timed replay keeps no queue), got "
                          f"{queue_depth!r}")
    if time_limit_us is not None and not time_limit_us > 0:
        raise ConfigError(f"{where}: time_limit_us must be None or > 0, "
                          f"got {time_limit_us!r}")


class ClosedLoopHost:
    """Issue trace requests with a constant queue depth until exhausted."""

    def __init__(self, ssd, trace: Trace, queue_depth: Optional[int] = None,
                 max_requests: Optional[int] = None):
        if len(trace) == 0:
            raise SimulationError("cannot drive an empty trace")
        check_size(self, "queue_depth", queue_depth)
        check_size(self, "max_requests", max_requests)
        self.ssd = ssd
        self.trace = trace
        self.queue_depth = (queue_depth if queue_depth is not None
                            else ssd.config.queue_depth)
        self.max_requests = min(
            max_requests if max_requests is not None else len(trace), len(trace)
        )
        self._next = 0
        self._outstanding = 0
        self.completed = 0

    def start(self) -> None:
        """Prime the queue; completions keep it full."""
        for _ in range(min(self.queue_depth, self.max_requests)):
            self._issue_next()

    def _issue_next(self) -> None:
        if self._next >= self.max_requests:
            return
        request = self.trace[self._next]
        self._next += 1
        self._outstanding += 1
        self.ssd.submit_request(request, on_complete=self._on_complete)

    def _on_complete(self) -> None:
        self._outstanding -= 1
        self.completed += 1
        self._issue_next()

    @property
    def done(self) -> bool:
        return self.completed >= self.max_requests and self._outstanding == 0


class TimedReplayHost:
    """Issue trace requests at their recorded timestamps (open loop)."""

    def __init__(self, ssd, trace: Trace, max_requests: Optional[int] = None):
        if len(trace) == 0:
            raise SimulationError("cannot drive an empty trace")
        check_size(self, "max_requests", max_requests)
        self.ssd = ssd
        self.trace = trace
        self.max_requests = min(
            max_requests if max_requests is not None else len(trace), len(trace)
        )
        self.completed = 0

    def start(self) -> None:
        sim = self.ssd.sim
        for i in range(self.max_requests):
            request = self.trace[i]
            sim.at(
                max(request.timestamp_us, sim.now),
                lambda r=request: self.ssd.submit_request(
                    r, on_complete=self._on_complete
                ),
            )

    def _on_complete(self) -> None:
        self.completed += 1

    @property
    def done(self) -> bool:
        return self.completed >= self.max_requests
