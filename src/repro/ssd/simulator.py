"""Top-level SSD simulator: wiring, request execution, and run loops.

The simulated device follows Fig. 5 / Table I: a host link (8 GB/s) in
front of a controller that spreads page operations over
``channels x dies x planes`` — planes sense independently (multi-plane
parallelism), each channel is a serial 1.2 GB/s link, and each channel owns
one LDPC decoder with a finite input buffer.  Retry behaviour is entirely
delegated to the configured :mod:`~repro.ssd.retry_policies` policy, which
compiles every page read into a timed phase plan; the
:class:`~repro.ssd.read_pipeline.ReadPipeline` walks those plans (and every
write and GC copy) through the contended resources of
:mod:`repro.ssd.resources`.  This class is the wiring plus the accounting
the pipeline shares: request completion, degraded reads, fault
mitigation and the Fig.-18 channel-usage breakdown.

Use :meth:`SSDSimulator.run_trace` for whole-workload runs, or
:meth:`SSDSimulator.submit_request` + :meth:`SSDSimulator.run` for a
custom request loop.  Observability (off by default, passive — a traced
run is bit-identical to an untraced one) has two inputs, the resource
probes and :class:`~repro.ssd.metrics.SimMetrics`; the read pipeline
feeds no observer:

* ``tracing=True`` attaches a :class:`~repro.obs.trace.SimTracer` to the
  probes of every plane, channel, decoder and the host link (one
  occupancy stream, whose read spans carry their request; the Fig. 7/8
  phase view is part of it) and records every request's lifecycle span
  and instants; export them as Chrome ``trace_event`` JSON with
  :meth:`export_chrome_trace`.
* ``snapshot_interval_us`` bins channel usage (a channel probe) and the
  change of every SLO counter and the host bytes into fixed windows
  (:class:`~repro.obs.snapshots.SnapshotRecorder`): :meth:`run` pauses the
  event loop just before each window edge to read the metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

from ..config import SSDConfig
from ..errors import (
    DegradedReadError,
    FaultInjectionError,
    ReproError,
    SimulationError,
)
from ..faults import FaultInjector, FaultPlan, ReadFaultDecision
from ..nand.geometry import AddressMapper
from ..obs.export import write_chrome_trace
from ..obs.snapshots import SnapshotRecorder
from ..obs.trace import SimTracer
from ..rng import SeedLike, make_rng, spawn
from ..units import SEC
from ..workloads.trace import IORequest, Trace
from .ecc_model import EccOutcomeModel
from .events import Simulator
from .ftl import PageMapFtl
from .host import ClosedLoopHost, TimedReplayHost
from .metrics import ChannelUsage, SimMetrics
from .read_pipeline import ReadPipeline
from .reliability import PageReliabilitySampler
from .resources import Channel, Ecc, Fifo, HostLink
from .retry_policies import TAG_GC, TAG_WRITE, make_policy


#: Version stamp written into every serialised :class:`SimulationResult`.
#: Readers ignore keys they do not know (see the ``from_dict`` methods), so
#: bumping this only matters for tooling that wants to warn on mismatch.
RESULT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class SimulationResult:
    """Everything a workload run produces.

    ``completed`` distinguishes a trace driven to exhaustion from a run cut
    off at ``time_limit_us`` — partial runs still report valid bandwidth
    over the elapsed window, but comparisons across policies should check
    the flag.
    """

    policy: str
    pe_cycles: float
    workload: str
    metrics: SimMetrics
    channel_usage: ChannelUsage
    completed: bool = True

    @property
    def io_bandwidth_mb_s(self) -> float:
        return self.metrics.io_bandwidth_mb_s()

    def to_dict(self) -> dict:
        """JSON-compatible dict; :meth:`from_dict` round-trips exactly."""
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "policy": self.policy,
            "pe_cycles": self.pe_cycles,
            "workload": self.workload,
            "metrics": self.metrics.to_dict(),
            "channel_usage": self.channel_usage.to_dict(),
            "completed": self.completed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild from a dict; only known keys are read, so payloads
        written by a newer schema version still load."""
        return cls(
            policy=data["policy"],
            pe_cycles=data["pe_cycles"],
            workload=data["workload"],
            metrics=SimMetrics.from_dict(data["metrics"]),
            channel_usage=ChannelUsage.from_dict(data["channel_usage"]),
            completed=data.get("completed", True),
        )


class _RequestState:
    """Tracks completion of a multi-page host request: ``remaining`` pages
    are unfinished, and ``done_us`` is the latest end of the finished ones
    (a read page finishes once it is booked on the host link)."""

    __slots__ = ("remaining", "started_us", "done_us", "is_read", "bytes",
                 "on_complete", "request_id")

    def __init__(self, remaining: int, started_us: float, is_read: bool,
                 nbytes: int, on_complete: Optional[Callable[[], None]],
                 request_id: int = 0):
        self.remaining = remaining
        self.started_us = started_us
        self.done_us = started_us
        self.is_read = is_read
        self.bytes = nbytes
        self.on_complete = on_complete
        self.request_id = request_id


class SSDSimulator:
    """A complete simulated SSD running one retry policy at one wear level."""

    def __init__(
        self,
        config: Optional[SSDConfig] = None,
        policy: str = "RiFSSD",
        pe_cycles: float = 0.0,
        seed: SeedLike = 7,
        outcome_model: Optional[EccOutcomeModel] = None,
        policy_kwargs: Optional[dict] = None,
        reliability_mode: str = "parametric",
        read_disturb_threshold: Optional[int] = None,
        operating_temp_c: Optional[float] = None,
        channel_arbitration: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        tracing: bool = False,
        snapshot_interval_us: Optional[float] = None,
    ):
        self.config = config or SSDConfig()
        self.sim = Simulator()
        self.tracer: Optional[SimTracer] = SimTracer() if tracing else None
        g = self.config.geometry
        self.mapper = AddressMapper(g)

        root = make_rng(seed)
        sampler_seed = int(spawn(root, 1).integers(0, 2**31))
        if reliability_mode == "parametric":
            self.sampler = PageReliabilitySampler(
                pe_cycles,
                self.config.reliability,
                self.config.ecc,
                seed=sampler_seed,
                operating_temp_c=operating_temp_c,
            )
        elif reliability_mode == "lut":
            if operating_temp_c is not None:
                raise SimulationError(
                    "LUT reliability tables are characterised at the "
                    "reference temperature; use the parametric mode for "
                    "temperature studies"
                )
            # the paper's exact methodology: per-block characterization
            # lookup tables from randomly assigned test blocks
            from .lut_reliability import LutReliabilitySampler

            self.sampler = LutReliabilitySampler(
                pe_cycles,
                reliability=self.config.reliability,
                ecc=self.config.ecc,
                seed=sampler_seed,
            )
        else:
            raise SimulationError(
                f"unknown reliability_mode {reliability_mode!r} "
                "(use 'parametric' or 'lut')"
            )
        self.outcome_model = outcome_model or EccOutcomeModel(
            ecc=self.config.ecc, seed=spawn(root, 2)
        )
        self.policy = make_policy(
            policy, self.config.timings, self.outcome_model,
            **(policy_kwargs or {}),
        )
        self.pe_cycles = pe_cycles
        self.ftl = PageMapFtl(self.config)
        self.metrics = SimMetrics()
        #: reads a block tolerates before read-disturb relocation (None =
        #: management off; real parts use ~100K, scale it to the trace)
        self.read_disturb_threshold = read_disturb_threshold
        if read_disturb_threshold is not None and read_disturb_threshold < 1:
            raise SimulationError("read_disturb_threshold must be >= 1")

        # --- resources ---
        #: with arbitration on, read transfers outrank writes/GC and
        #: un-gated traffic may bypass a decoder-stalled read (the channel
        #: keeps moving write data during ECCWAIT)
        self.channel_arbitration = channel_arbitration
        self._page_size = g.page_size
        self._host_page_us = (self._page_size
                              / self.config.bandwidth.host_bytes_per_us)
        self.host_link = HostLink(self.sim, "host", self._host_page_us)
        self.planes = [
            Fifo(self.sim, f"plane{i}") for i in range(g.total_planes)
        ]
        self.eccs = [
            Ecc(self.sim, f"ecc{i}", self.config.ecc.buffer_pages)
            for i in range(g.channels)
        ]
        self.channels = [
            Channel(self.sim, f"ch{i}", self.eccs[i],
                    arbitrated=channel_arbitration)
            for i in range(g.channels)
        ]
        for channel, ecc in zip(self.channels, self.eccs):
            ecc.subscribe_on_release(channel.kick)

        # --- observability wiring (repro.obs; all hooks are passive) ---
        self._requests_submitted = 0
        if self.tracer is not None:
            for resource in (*self.channels, *self.planes, self.host_link):
                resource.attach_probe(self.tracer.record_resource)
            for ecc in self.eccs:
                ecc.decoder.attach_probe(self.tracer.record_resource)
        self.snapshots: Optional[SnapshotRecorder] = None
        if snapshot_interval_us is not None:
            self.snapshots = SnapshotRecorder(snapshot_interval_us,
                                              channels=g.channels)
            for channel in self.channels:
                channel.attach_probe(self.snapshots.observe_span)

        # --- fault injection (repro.faults) ---
        self.fault_plan = fault_plan
        self.fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None
            and fault_plan.simulator_faults() else None
        )
        if self.fault_injector is not None:
            self._schedule_saturation_windows()

        # --- read pipeline (constructed last: it captures the policy,
        # sampler, metrics, tracer and fault wiring above) ---
        self._pipeline = ReadPipeline(self)

    def _schedule_saturation_windows(self) -> None:
        """Wire ``ecc_saturation`` faults as sim-time events: hold decoder
        buffer slots at window start, release that window's hold (and
        re-kick the gated channels) at window end.  Windows should lie
        inside the measured run — the edge events advance the clock like
        any other event."""
        for spec in self.fault_injector.saturation_windows():
            if spec.channel is not None:
                if not 0 <= spec.channel < len(self.eccs):
                    raise FaultInjectionError(
                        f"ecc_saturation channel {spec.channel} outside "
                        f"[0, {len(self.eccs)})"
                    )
                targets = [self.eccs[spec.channel]]
            else:
                targets = list(self.eccs)
            slots = int(spec.magnitude)
            for ecc in targets:
                self.sim.at(spec.start_us,
                            lambda e=ecc, n=slots: e.hold_slots(n))
                self.sim.at(spec.end_us,
                            lambda e=ecc, n=slots: e.release_held_slots(n))

    # --- request entry point ------------------------------------------------------------

    def submit_request(self, request: IORequest,
                       on_complete: Optional[Callable[[], None]] = None) -> None:
        """Admit one host request; pages fan out immediately."""
        lpns = request.lpns(self._page_size)
        request_id = self._requests_submitted
        self._requests_submitted += 1
        state = _RequestState(len(lpns), self.sim.now, request.is_read,
                              request.size_bytes, on_complete, request_id)
        if self.tracer is not None:
            self.tracer.record_instant(
                "request.queued", self.sim.now, request_id=request_id,
                args={"op": "read" if request.is_read else "write",
                      "bytes": request.size_bytes, "pages": len(lpns)},
            )
        pipeline = self._pipeline
        if request.is_read:
            pipeline.start_reads(lpns, state)
        else:
            for lpn in lpns:
                pipeline.start_write(lpn, state)

    def run(self, until: Optional[float] = None) -> None:
        """Drive the event loop (see :meth:`Simulator.run`)."""
        snapshots = self.snapshots
        if snapshots is None or snapshots.finalized:
            self.sim.run(until=until)
        else:
            self._run_windows(until)
        self.metrics.elapsed_us = self.sim.now
        for channel in self.channels:
            channel.finalize()
        self.host_link.finalize()
        # history-driven policies: snapshot learned state and hit/miss
        # counters into the metrics so result JSON (and thus the campaign
        # cache and fleet rollups) carries them; idempotent on re-entry
        if self.policy.stateful:
            self.metrics.adaptive_hits = self.policy.hits
            self.metrics.adaptive_mispredicts = self.policy.mispredicts
            self.metrics.adaptive_state = self.policy.export_state()
        # snapshots consume the channels' closing ECCWAIT probes above, so
        # the window series freezes only after every interval is closed
        if snapshots is not None and not snapshots.finalized:
            snapshots.finalize(self.sim.now, self.metrics)

    def _run_windows(self, until: Optional[float]) -> None:
        """:meth:`Simulator.run` with a pause just before each snapshot
        window edge, where the recorder reads the window's counter
        changes off the metrics.  The event past the pause goes back on
        the heap unchanged, so the run is the one :meth:`run` makes
        without snapshots; an event at an edge counts in the later
        window."""
        sim = self.sim
        events = sim.events
        recorder = self.snapshots
        horizon = math.inf if until is None else until
        while recorder.window_end <= horizon:
            sim.run(until=math.nextafter(recorder.window_end, -math.inf))
            if not events:
                return  # drained: finalize closes the open window
            recorder.close_window(self.metrics, events.peek_time())
        sim.run(until=until)

    def cache_stats(self) -> List[dict]:
        """JSON-ready hit/miss counters of the reliability sampler's memo
        caches (see :mod:`repro.perf.cache`)."""
        return self.sampler.cache_stats()

    # --- fault mitigation (repro.faults) ---------------------------------------------

    def _mitigate_read_faults(self, lpn: int, resolved: tuple,
                              block_key: tuple, read_key: tuple,
                              faults: ReadFaultDecision,
                              state: _RequestState) -> Optional[tuple]:
        """Controller-level mitigation that must happen before the plan is
        compiled, for a read of ``lpn`` resolved to ``resolved`` (the
        tuple :meth:`~repro.ssd.ftl.PageMapFtl.read` returns) in the
        block ``block_key`` = ``(channel, die, plane, block)``, FTL key
        ``read_key`` = ``(pidx, block)``.  Returns the (possibly
        re-resolved) ``(ppn, written_at_us, block_read_count)``, or
        ``None`` when the read was dispatched as degraded."""
        if faults.offline:
            self._degraded_read(state, DegradedReadError(
                f"die (channel={block_key[0]}, die={block_key[1]}) is offline"
            ))
            return None
        if faults.grown_bad_block:
            relocation = self.ftl.relocate_block(*read_key, self.sim.now)
            if relocation is not None:
                # retirement: live pages (ours included) moved off the bad
                # block through the existing relocation path
                self.metrics.retired_blocks += 1
                self.fault_injector.note_block_retired(block_key)
                self._pipeline.start_relocation(*relocation)
                resolved = self.ftl.read(lpn)  # re-resolve to the new home
            # the triggering read pays at least one retry round either way
            # (an unretired block struggles through like a transient fault)
            faults.sense_failures = max(faults.sense_failures, 1)
        return resolved

    def _degraded_read(self, state: _RequestState, error: ReproError) -> None:
        """A read the controller cannot serve: absorb it into the metrics
        (completing the page immediately with an error reply) or raise the
        typed error, per the plan's ``on_degraded`` disposition."""
        if self.fault_plan.on_degraded == "raise":
            raise error
        self.metrics.degraded_reads += 1
        self._page_done(state)

    def _relocate_disturbed_block(self, read_key: tuple) -> None:
        """Read-disturb management: rewrite the heavily-read block
        ``read_key`` = ``(pidx, block)``, resetting its disturb counter
        (SecI's 'read-disturb management' internal traffic)."""
        relocation = self.ftl.relocate_block(*read_key, self.sim.now)
        if relocation is None:
            return  # unsafe right now; the next read will retry
        self.metrics.disturb_relocations += 1
        self._pipeline.start_relocation(*relocation)

    # --- completion & metrics ---------------------------------------------------------------------

    def _page_done(self, state: _RequestState) -> None:
        """A page of ``state`` finished now (a write programmed, a read
        degraded).  The request completes with its last page, at the
        latest end of its pages: an earlier read page may still be
        crossing the host link."""
        state.remaining -= 1
        if state.remaining > 0:
            return
        if state.done_us > self.sim.now:
            self.sim.at(state.done_us, partial(self._request_done, state))
            return
        self._request_done(state)

    def _request_done(self, state: _RequestState) -> None:
        latency = self.sim.now - state.started_us
        if state.is_read:
            self.metrics.host_read_bytes += state.bytes
            self.metrics.record_read_latency(latency)
        else:
            self.metrics.host_write_bytes += state.bytes
            self.metrics.record_write_latency(latency)
        if self.tracer is not None:
            op = "read" if state.is_read else "write"
            self.tracer.record_request_span(
                state.request_id, f"{op}:req{state.request_id}",
                state.started_us, self.sim.now, tag=op.upper(),
            )
            self.tracer.record_instant(
                "request.done", self.sim.now, request_id=state.request_id,
                args={"latency_us": latency},
            )
        if state.on_complete is not None:
            state.on_complete()

    def channel_usage(self) -> ChannelUsage:
        """Aggregate Fig.-18 channel-time breakdown across all channels."""
        if self.metrics.elapsed_us <= 0:
            raise SimulationError("run the simulation first")
        cor = uncor = write = gc = eccwait = 0.0
        for channel in self.channels:
            tags = channel.busy_time_by_tag
            cor += tags.get("COR", 0.0)
            uncor += tags.get("UNCOR", 0.0)
            write += tags.get(TAG_WRITE, 0.0)
            gc += tags.get(TAG_GC, 0.0)
            eccwait += channel.blocked_time
        total = self.metrics.elapsed_us * len(self.channels)
        busy = cor + uncor + write + gc + eccwait
        if busy > total + 1e-6:
            raise SimulationError("channel accounting exceeded wall clock")
        return ChannelUsage(
            cor=cor, uncor=uncor, write=write, gc=gc,
            eccwait=eccwait, idle=max(total - busy, 0.0),
        )

    def export_chrome_trace(self, path, title: Optional[str] = None):
        """Write the run's trace as Chrome ``trace_event`` JSON (open in
        ``chrome://tracing`` or Perfetto); requires tracing to be enabled."""
        if self.tracer is None:
            raise SimulationError(
                "no tracer attached; construct the simulator with "
                "tracing=True"
            )
        name = title or f"{self.policy.name.value} @ {self.pe_cycles:g} P/E"
        return write_chrome_trace(path, self.tracer, title=name)

    # --- workload runs -------------------------------------------------------------------------------

    def run_trace(
        self,
        trace: Trace,
        mode: str = "closed",
        max_requests: Optional[int] = None,
        queue_depth: Optional[int] = None,
        time_limit_us: float = 300 * SEC,
    ) -> SimulationResult:
        """Run a whole trace and return the aggregated result.

        ``mode='closed'`` keeps a constant queue depth (bandwidth
        measurement); ``mode='timed'`` replays recorded arrival times.
        """
        if mode == "closed":
            host = ClosedLoopHost(self, trace, queue_depth=queue_depth,
                                  max_requests=max_requests)
        elif mode == "timed":
            host = TimedReplayHost(self, trace, max_requests=max_requests)
        else:
            raise SimulationError(f"unknown mode {mode!r}")
        host.start()
        self.run(until=time_limit_us)
        return SimulationResult(
            policy=str(self.policy.name.value),
            pe_cycles=self.pe_cycles,
            workload=trace.name,
            metrics=self.metrics,
            channel_usage=self.channel_usage(),
            completed=host.done,
        )
