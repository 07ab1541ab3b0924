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


class MultiQueueHost:
    """NVMe-style multi-queue closed-loop driver.

    The paper's simulator substrate (MQSim) is named for exactly this: hosts
    submit through several independent queues, each with its own depth, and
    the device serves them concurrently.  Each queue here drives its own
    request stream (round-robin partition of the trace by default) with an
    independent closed loop; per-queue completion counts expose fairness.
    """

    def __init__(self, ssd, trace: Trace, n_queues: int = 4,
                 queue_depth: Optional[int] = None,
                 max_requests: Optional[int] = None):
        if len(trace) == 0:
            raise SimulationError("cannot drive an empty trace")
        if n_queues < 1:
            raise SimulationError("need at least one queue")
        check_size(self, "queue_depth", queue_depth)
        check_size(self, "max_requests", max_requests)
        self.ssd = ssd
        self.n_queues = n_queues
        per_queue_depth = (queue_depth if queue_depth is not None
                           else max(1, ssd.config.queue_depth // n_queues))
        limit = min(max_requests if max_requests is not None else len(trace),
                    len(trace))
        partitions = [
            [trace[i] for i in range(q, limit, n_queues)]
            for q in range(n_queues)
        ]
        self._queues = []
        for q, requests in enumerate(partitions):
            if not requests:
                continue
            sub = Trace(requests, name=f"{trace.name}.q{q}")
            self._queues.append(
                ClosedLoopHost(ssd, sub, queue_depth=per_queue_depth)
            )

    def start(self) -> None:
        for queue in self._queues:
            queue.start()

    @property
    def done(self) -> bool:
        return all(queue.done for queue in self._queues)

    @property
    def completed(self) -> int:
        return sum(queue.completed for queue in self._queues)

    def per_queue_completed(self) -> list:
        """Completion counts per queue (fairness diagnostics)."""
        return [queue.completed for queue in self._queues]


class TimedReplayHost:
    """Issue trace requests at their recorded timestamps (open loop)."""

    def __init__(self, ssd, trace: Trace, max_requests: Optional[int] = None,
                 time_scale: float = 1.0):
        if len(trace) == 0:
            raise SimulationError("cannot drive an empty trace")
        if time_scale <= 0:
            raise SimulationError("time_scale must be positive")
        check_size(self, "max_requests", max_requests)
        self.ssd = ssd
        self.trace = trace
        self.max_requests = min(
            max_requests if max_requests is not None else len(trace), len(trace)
        )
        self.time_scale = time_scale
        self.completed = 0

    def start(self) -> None:
        sim = self.ssd.sim
        for i in range(self.max_requests):
            request = self.trace[i]
            sim.at(
                max(request.timestamp_us * self.time_scale, sim.now),
                lambda r=request: self.ssd.submit_request(
                    r, on_complete=self._on_complete
                ),
            )

    def _on_complete(self) -> None:
        self.completed += 1

    @property
    def done(self) -> bool:
        return self.completed >= self.max_requests
