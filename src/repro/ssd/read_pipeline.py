"""Structure-of-arrays read pipeline — the simulator's execution engine.

Each page read is compiled by its retry policy into flat ``(kind,
duration, tag, decode_us)`` phase tuples
(:meth:`~repro.ssd.retry_policies.ReadRetryPolicy.plan_into` filling a
reused :class:`~repro.ssd.retry_policies.PlanBuild`) and walked through
the contended resources of :mod:`repro.ssd.resources` by:

* **An explicit per-read state machine** (:class:`ReadPipeline`) over
  structure-of-arrays slot storage: one parallel array per field (phase
  list, cursor, owning resources, fault bookkeeping).  Each transition is
  a method bound once per pipeline; the resources call it with the slot
  index (``cb(slot)``), so steady-state execution allocates nothing per
  phase and a new slot costs only its data fields.  Writes and GC copies
  use the same slots.
* **One start loop, one dispatch path**: :meth:`ReadPipeline.start_reads`
  starts a request's pages one at a time, whatever the request's size,
  and every page read — clean or fault-injected — reaches its resources
  through a memoized per-ppn *route* and :meth:`ReadPipeline._dispatch`,
  which folds a read's faults into its plan only when it has some.
* **One record per page**: a page's route holds its seven address-fixed
  facts — block key, page, plane, channel, ECC, read-counter key and
  process-variation strength factor — so a page read makes one memo
  lookup, and its RBER is the model's curve
  (:meth:`~repro.nand.rber.RberModel.rber_at`) evaluated from the
  drive's wear terms, the retention age and the route's factor.  The
  routes of a trace's read footprint (the identity pages of the lpns
  its reads touch) are built before the run, many per numpy pass
  (:meth:`ReadPipeline.build_routes`); every other page's route — a
  page written or moved during the run, or read by a custom
  ``submit_request`` loop — is built on demand by
  :meth:`ReadPipeline._route`, which is also the reference the batch is
  held to.
* **Integer addressing**: the FTL hands out flat page numbers, so writes
  and GC copies pick their plane as ``pidx = ppn % total_planes`` and
  their channel as ``pidx % channels`` (the stripe order of
  :class:`~repro.nand.geometry.AddressMapper`); nothing on the simulator's
  path builds a :class:`~repro.nand.geometry.PageAddress`.
* **A closed-form host link**: every page crosses the host link in the
  same time, so :class:`~repro.ssd.resources.HostLink` fixes a page's end
  (``max(now, previous end) + page time``) when the page is handed over;
  a decode that completes a read's plan finishes the read directly.  A
  read page that is not its request's last frees its slot and schedules
  nothing.  A request completes at the latest end of its pages: the last
  page handed over schedules the completion at its end (the link is
  FIFO), and a degraded page finishes when it degrades, so a request
  whose last page degrades still waits for its pages on the link.
  Writes schedule their channel DMA at their end.  Planes, channels and
  decoders keep pushing each completion event when the job starts:
  same-length jobs started together finish at one timestamp in push
  order, and fixing their ends at enqueue changed all 26 golden digests.

Ordering contracts (load-bearing — any deviation shows up as a timestamp
diff, and ``tests/test_golden.py`` pins every output bit for bit):

* gated channel entries reserve their decoder-buffer slot when the
  transfer *starts*; the slot is released when the decode completes,
  **before** the plan advances (release kicks the channel, so a waiting
  transfer starts within the same callback, ahead of the advancing read's
  next event);
* each page of a request runs its whole sequence — resolve, inject,
  sample, compile, dispatch, relocate — before the next page resolves:
  fault mitigation and read-disturb relocation move pages, and the
  request's later pages must see where they moved;
* a write enqueues its GC copies and erases (FTL order) before its host
  transfer.

The pipeline feeds no observer.  It counts each compiled plan in the
metrics; when a tracer is attached it also records the plan as a
``read.plan`` instant and labels each read job ``(page label, request
id)``, and the resource probes report the job's occupancy.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ReproError, RetryExhaustedError
from .retry_policies import (
    K_SENSE,
    K_TRANSFER,
    TAG_GC,
    TAG_UNCOR,
    TAG_WRITE,
    PlanBuild,
)

#: routes the table holds at most; reaching it clears the table, the
#: bound policy of the memo caches
ROUTE_TABLE_BOUND = 1 << 20


class ReadPipeline:
    """Explicit per-phase state machine over structure-of-arrays slots.

    Every in-flight page read owns a *slot* — an index into a set of
    parallel arrays (phase tuples, cursor, owning resources, fault state,
    probe label).  Transitions are methods bound once per pipeline and
    called with the slot index by the resource that completes the phase,
    so steady-state execution allocates nothing per phase.  Slots are
    pooled through a free list and reused.

    The phase walk per slot::

        [fault sense retries]* -> phase[0] -> phase[1] -> ... -> host link
                                   |            |
                                 SENSE       TRANSFER ---(decode_us)---> decode
                                (plane)      (channel, slot-gated)       (ecc)
    """

    def __init__(self, ssd):
        self.ssd = ssd
        self.sim = ssd.sim
        self.metrics = ssd.metrics
        self.policy = ssd.policy
        self.sampler = ssd.sampler
        self.ftl = ssd.ftl
        self.mapper = ssd.mapper
        timings = ssd.config.timings
        self.t_read = timings.t_read
        self._t_dma = timings.t_dma
        self._t_prog = timings.t_prog
        self._t_erase = timings.t_erase
        # bound hot-path references (one attribute hop instead of two)
        self._planes = ssd.planes
        self._channels = ssd.channels
        self._eccs = ssd.eccs
        self._host_link = ssd.host_link
        self._planes_total = len(ssd.planes)
        self._n_channels = len(ssd.channels)
        self._decode = ssd.mapper.decode
        self._request_done = ssd._request_done
        #: a traced run records each plan and labels each read job
        self.tracer = ssd.tracer
        self._build = PlanBuild()
        # ppn -> (block_key, page, plane, channel, ecc, read_key,
        # strength): everything a page read needs, pure in ppn (geometry,
        # wiring and process variation never change)
        self._routes: dict = {}
        #: routes :meth:`build_routes` built (the rest were built on
        #: demand by :meth:`_route`)
        self.batch_routes = 0
        # a page's RBER: the curve at the drive's fixed wear terms and
        # thermal acceleration, with the strength factor of its route
        model = self.sampler.model
        self._strength = model.strength_factor
        self._variation = model.variation
        self._rber_at = model.rber_at
        self._wear = self.sampler.wear
        self._acceleration = self.sampler.thermal_acceleration
        # history-driven policies (repro.ssd.adaptive): hand each page's
        # identity to the policy before compiling its plan
        self._stateful = self.policy.stateful
        # --- structure-of-arrays slot storage ---
        self._free: List[int] = []
        self._phases: List[List[tuple]] = []   # flat (kind, dur, tag, dec)
        self._cursor: List[int] = []           # next phase to dispatch
        self._state: List[object] = []         # owning _RequestState
        self._plane: List[object] = []
        self._channel: List[object] = []
        self._ecc: List[object] = []
        self._exhausted: List[Optional[ReproError]] = []
        self._fired: List[Optional[int]] = []  # injected faults, None=clean
        self._label: List[Optional[tuple]] = []
        self._fault_round: List[int] = []
        self._fault_failures: List[int] = []
        self._gc_in: List[object] = []         # GC copy: inbound channel
        self._gc_dst: List[object] = []        # GC copy: destination plane
        # transitions, bound once; resources call them as cb(slot)
        self._xferdec_cb = self._xferdec_done
        self._s2x_cb = self._sense2x_done
        self._decode_cb = self._decode_done
        self._wdone_cb = self._write_done
        self._fault_cb = self._fault_sense_done
        self._advance_cb = self._advance
        self._whost_cb = self._write_host_done
        self._wdma_cb = self._write_dma_done
        self._gc_sense_cb = self._gc_sense_done
        self._gc_out_cb = self._gc_out_done
        self._gc_in_cb = self._gc_in_done

    # --- slot pool ---------------------------------------------------------

    def _grow(self) -> int:
        """Append one fresh slot (callers pop ``_free`` first)."""
        i = len(self._cursor)
        self._phases.append([])
        self._cursor.append(0)
        self._state.append(None)
        self._plane.append(None)
        self._channel.append(None)
        self._ecc.append(None)
        self._exhausted.append(None)
        self._fired.append(None)
        self._label.append(None)
        self._fault_round.append(0)
        self._fault_failures.append(0)
        self._gc_in.append(None)
        self._gc_dst.append(None)
        return i

    def _release(self, i: int) -> None:
        # the route fields (plane, channel, ecc, label) are written by
        # every start that reads them, so only state and faults reset
        del self._phases[i][:]
        self._state[i] = None
        self._exhausted[i] = None
        self._fired[i] = None
        self._free.append(i)

    # --- request entry -----------------------------------------------------

    def start_reads(self, lpns: Sequence[int], state) -> None:
        """Start one read request's pages, each through resolve -> inject
        -> sample -> compile -> dispatch -> relocate before the next one
        resolves; injection runs only on a drive with a fault injector,
        relocation only on a drive with a disturb threshold."""
        ssd = self.ssd
        injector = ssd.fault_injector
        threshold = ssd.read_disturb_threshold
        resolve = self.ftl.resolve_fast
        block_reads = self.ftl._block_reads
        routes = self._routes
        route_of = self._route
        dispatch = self._dispatch
        sampler = self.sampler
        cold_age = sampler.cold_age_days
        warm_age = sampler.warm_age_days
        rber_at = self._rber_at
        wear = self._wear
        acceleration = self._acceleration
        now = self.sim.now
        for lpn in lpns:
            ppn, written = resolve(lpn)
            route = routes.get(ppn)
            if route is None:
                route = route_of(ppn)
            key = route[5]
            reads = block_reads.get(key, 0) + 1
            block_reads[key] = reads
            faults = None
            if injector is not None:
                faults = injector.on_page_read(route[0], now)
                if faults.any:
                    self.metrics.faults_injected += faults.fired
                    resolved = ssd._mitigate_read_faults(
                        lpn, (ppn, written, reads), route[0], key, faults,
                        state)
                    if resolved is None:
                        continue  # degraded: the page was completed (or raised)
                    # a retired block moved the page: follow it
                    ppn, written, reads = resolved
                    route = routes.get(ppn) or route_of(ppn)
                else:
                    faults = None
            if written is None:
                retention = cold_age(lpn)
            else:
                retention = warm_age(written, now)
            rber = rber_at(wear, retention * acceleration, route[6], reads)
            dispatch(lpn, route, rber, state, retention, faults)
            if threshold is not None and reads >= threshold:
                ssd._relocate_disturbed_block(route[5])

    # --- compile + dispatch -------------------------------------------------

    def _route(self, ppn: int) -> tuple:
        """Resolve and memoize the dispatch route of one physical page:
        ``(block_key, page, plane, channel, ecc, read_key, strength)`` —
        all pure in ppn.  ``block_key`` is ``(channel, die, plane,
        block)``, the key of the RBER model, the history-driven policies
        and the fault injector; ``read_key`` is the FTL's ``(pidx,
        block)`` read-counter key (the same integers
        :meth:`~repro.ssd.ftl.PageMapFtl.read` derives); ``strength`` is
        the page's process-variation factor
        (:meth:`~repro.nand.rber.RberModel.strength_factor`), computed
        here once per route.  This is the on-demand path, for the pages
        :meth:`build_routes` did not build before the run: pages written
        or moved during it, and every page under
        :func:`~repro.perf.cache.caches_disabled`."""
        pidx, channel, die, plane, block, page = self._decode(ppn)
        block_key = (channel, die, plane, block)
        route = (block_key, page,
                 self._planes[pidx],
                 self._channels[channel], self._eccs[channel],
                 (pidx, block), self._strength(block_key, page))
        routes = self._routes
        if len(routes) >= ROUTE_TABLE_BOUND:
            routes.clear()
        routes[ppn] = route
        return route

    def build_routes(self, ppns: Sequence[int]) -> None:
        """Build the routes of many distinct pages in one pass: those of
        ``ppns`` that have none yet, as many as the table's bound leaves
        room for.  The decode and the strength factors' hashes run in
        numpy (:meth:`~repro.nand.geometry.AddressMapper.decode_array`,
        :meth:`~repro.nand.variation.VariationModel.strength_factors`,
        once per distinct block), so each route equals :meth:`_route`'s
        field for field; the ``rber.block_factor`` table is neither
        probed nor filled."""
        routes = self._routes
        new = [ppn for ppn in ppns if ppn not in routes]
        del new[ROUTE_TABLE_BOUND - len(routes):]
        if not new:
            return
        pidx, channel, die, plane, block, page = self.mapper.decode_array(
            np.array(new, dtype=np.int64))
        # the distinct blocks, numbered by (block, pidx)
        _, first, block_of = np.unique(block * self._planes_total + pidx,
                                       return_index=True, return_inverse=True)
        strengths = self._variation.strength_factors(
            (channel[first], die[first], plane[first], block[first]),
            block_of, page)
        planes, channels, eccs = self._planes, self._channels, self._eccs
        for ppn, p, c, d, pl, b, pg, strength in zip(
                new, pidx.tolist(), channel.tolist(), die.tolist(),
                plane.tolist(), block.tolist(), page.tolist(), strengths):
            routes[ppn] = ((c, d, pl, b), pg, planes[p], channels[c], eccs[c],
                           (p, b), strength)
        self.batch_routes += len(new)

    def _dispatch(self, lpn: int, route: tuple, rber: float, state,
                  retention: float, faults=None) -> None:
        """Compile one page read's plan, count it in the metrics and start
        it along its route.

        ``faults`` is the read's fired
        :class:`~repro.faults.ReadFaultDecision`, or ``None`` for a clean
        read; only then are ``_exhausted``/``_fired`` set (:meth:`_release`
        restores ``None``).
        """
        build = self._build
        build.reset(rber)
        if self._stateful:
            self.policy.begin_read(route[0], retention)
        self.policy.plan_into(build, rber)
        m = self.metrics
        m.page_reads += 1
        m.total_senses += build.senses
        if build.retried:
            m.retried_reads += 1
        if build.in_die_retry:
            m.in_die_retries += 1
        m.uncorrectable_transfers += build.uncorrectable_transfers
        predicted = build.rp_predicted_retry
        if predicted is not None and predicted != build.retried:
            m.rp_mispredicts += 1
        label = None
        if self.tracer is not None:
            self.tracer.record_instant(
                "read.plan", self.sim.now, request_id=state.request_id,
                args=dict(build.trace_args(), lpn=lpn),
            )
            label = (f"R:lpn{lpn}", state.request_id)
        phases = build.phases
        if faults is not None:
            phases, exhausted = self._apply_transfer_faults(phases, faults)
            scale = faults.latency_scale
            if scale > 1.0:
                phases = [(kind, duration * scale, tag, decode)
                          if kind == K_SENSE else (kind, duration, tag, decode)
                          for kind, duration, tag, decode in phases]
        free = self._free
        i = free.pop() if free else self._grow()
        slot_phases = self._phases[i]
        slot_phases.extend(phases)
        self._state[i] = state
        self._plane[i] = route[2]
        self._ecc[i] = route[4]
        self._label[i] = label
        self._channel[i] = route[3]
        if faults is not None:
            self._exhausted[i] = exhausted
            self._fired[i] = faults.fired
            if faults.sense_failures:
                self._cursor[i] = 0
                self._fault_round[i] = 0
                self._fault_failures[i] = faults.sense_failures
                route[2].occupy(self.t_read, "FAULT", self._fault_cb, i, label)
                return
        if (len(slot_phases) == 2 and slot_phases[1][3] is not None
                and slot_phases[0][0] == K_SENSE):
            # the no-retry shape every policy's clean round compiles to:
            # sense, then one gated transfer+decode — drive it with a
            # single fused transition instead of the cursor machinery
            # (identical call order, so identical tie-breaks and times)
            self._cursor[i] = 2
            route[2].occupy(slot_phases[0][1], "SENSE", self._s2x_cb, i,
                            label)
            return
        self._cursor[i] = 0
        self._advance(i)

    def _sense2x_done(self, i: int) -> None:
        """Fused sense-completion of the two-phase fast path: start the
        gated transfer directly."""
        phase = self._phases[i][1]
        self._channel[i].occupy(phase[1], phase[2], self._xferdec_cb, i,
                                self._label[i], gated=True, priority=1)

    def _apply_transfer_faults(self, phases: List[tuple], faults):
        """Fold channel-corruption faults into a phase list.

        Each corrupted transfer crosses the channel, burns a doomed decode
        (UNCOR, full failed-decode latency), and is re-transferred; within
        the retry budget the clean plan follows, beyond it the corrupted
        rounds play out and the read ends degraded."""
        if not faults.corrupt_transfers:
            return phases, None
        ssd = self.ssd
        budget = ssd.fault_plan.max_retries
        plays = min(faults.corrupt_transfers, budget + 1)
        for i, (kind, duration, _tag, decode_us) in enumerate(phases):
            if kind == K_TRANSFER and decode_us is not None:
                corrupt = (K_TRANSFER, duration, TAG_UNCOR,
                           ssd.config.ecc.t_ecc_max)
                self.metrics.fault_retries += plays
                self.metrics.uncorrectable_transfers += plays
                if faults.corrupt_transfers > budget:
                    return list(phases[:i]) + [corrupt] * plays, \
                        RetryExhaustedError(
                            f"transfer still corrupt after {budget} "
                            "re-transfers"
                        )
                return (list(phases[:i]) + [corrupt] * plays
                        + list(phases[i:])), None
        return phases, None  # plan has no decoder-bound transfer to corrupt

    # --- state-machine transitions -----------------------------------------

    def _advance(self, i: int) -> None:
        """Dispatch the phase under the cursor (or finish the read)."""
        phases = self._phases[i]
        cursor = self._cursor[i]
        if cursor >= len(phases):
            self._finish_read(i)
            return
        self._cursor[i] = cursor + 1
        kind, duration, tag, decode_us = phases[cursor]
        if kind == K_SENSE:
            self._plane[i].occupy(duration, "SENSE", self._advance_cb, i,
                                  self._label[i])
        elif decode_us is None:
            self._channel[i].occupy(duration, tag, self._advance_cb, i,
                                    self._label[i], gated=False, priority=1)
        else:
            self._channel[i].occupy(duration, tag, self._xferdec_cb, i,
                                    self._label[i], gated=True, priority=1)

    def _xferdec_done(self, i: int) -> None:
        phase = self._phases[i][self._cursor[i] - 1]
        self._ecc[i].decoder.occupy(phase[3], phase[2], self._decode_cb, i,
                                    self._label[i])

    def _decode_done(self, i: int) -> None:
        # release before advancing: the freed slot starts the gated
        # channel's head, so a blocked transfer starts ahead of this read's
        # next event
        self._channel[i].release_slot()
        if self._cursor[i] == len(self._phases[i]):
            self._finish_read(i)  # the plan is done: skip the _advance hop
            return
        self._advance(i)

    def _finish_read(self, i: int) -> None:
        exhausted = self._exhausted[i]
        if exhausted is not None:
            state = self._state[i]
            self._release(i)
            self.ssd._degraded_read(state, exhausted)
            return
        fired = self._fired[i]
        if fired is not None:
            self.metrics.faults_absorbed += fired
        self._to_host(i)

    def _to_host(self, i: int) -> None:
        """Hand a read page to the host link and free its slot.  Only the
        request's last page schedules an event: the request completes when
        that page has crossed, the latest end of its pages (host-link ends
        only grow, and a degraded page finished earlier)."""
        state = self._state[i]
        self._release(i)
        remaining = state.remaining - 1
        state.remaining = remaining
        if remaining:
            state.done_us = self._host_link.book("READ")
        else:
            self._host_link.occupy("READ", self._request_done, state)

    def _write_done(self, i: int) -> None:
        state = self._state[i]
        self._release(i)
        self.ssd._page_done(state)

    # --- write lane and internal relocation ---------------------------------

    def start_write(self, lpn: int, state) -> None:
        """One page write through the allocation-free slot machinery.

        GC copies and erases first (FTL order), then host-link transfer ->
        channel DMA -> plane program.
        """
        ppn, copies, erased = self.ftl.write(lpn, self.sim.now)
        self.metrics.page_writes += 1
        if copies or erased:
            self.start_relocation(copies, erased)
        pidx = ppn % self._planes_total
        free = self._free
        i = free.pop() if free else self._grow()
        self._state[i] = state
        self._plane[i] = self._planes[pidx]
        self._channel[i] = self._channels[pidx % self._n_channels]
        self._host_link.occupy("WRITE", self._whost_cb, i)

    def _write_host_done(self, i: int) -> None:
        self._channel[i].occupy(self._t_dma, TAG_WRITE, self._wdma_cb, i)

    def _write_dma_done(self, i: int) -> None:
        self._plane[i].occupy(self._t_prog, TAG_WRITE, self._wdone_cb, i)

    def start_relocation(self, copies, erased) -> None:
        """Start an FTL operation's internal traffic: the ``(src_ppn,
        dst_ppn)`` GC copies of live pages, then erases of the freed
        ``(pidx, block)`` blocks — for writes, bad-block retirement and
        read-disturb management alike."""
        self.metrics.gc_page_copies += len(copies)
        for src_ppn, dst_ppn in copies:
            self._start_gc_copy(src_ppn, dst_ppn)
        t_erase = self._t_erase
        for pidx, _block in erased:
            self._planes[pidx].occupy(t_erase, "ERASE", None)

    def _start_gc_copy(self, src_ppn: int, dst_ppn: int) -> None:
        """Internal relocation: sense, move out, move back, program."""
        planes_total = self._planes_total
        n_channels = self._n_channels
        src_pidx = src_ppn % planes_total
        dst_pidx = dst_ppn % planes_total
        free = self._free
        i = free.pop() if free else self._grow()
        self._channel[i] = self._channels[src_pidx % n_channels]
        self._gc_in[i] = self._channels[dst_pidx % n_channels]
        self._gc_dst[i] = self._planes[dst_pidx]
        self._planes[src_pidx].occupy(
            self.t_read, TAG_GC, self._gc_sense_cb, i)

    def _gc_sense_done(self, i: int) -> None:
        self._channel[i].occupy(self._t_dma, TAG_GC, self._gc_out_cb, i)

    def _gc_out_done(self, i: int) -> None:
        self._gc_in[i].occupy(self._t_dma, TAG_GC, self._gc_in_cb, i)

    def _gc_in_done(self, i: int) -> None:
        self._gc_dst[i].occupy(self._t_prog, TAG_GC, None)
        self._gc_in[i] = None
        self._gc_dst[i] = None
        self._release(i)

    # --- transient sense faults ---------------------------------------------

    def _fault_sense_done(self, i: int) -> None:
        """Bounded retry with backoff: the die fails ``faults.sense_failures``
        consecutive senses; the controller re-issues up to ``max_retries``
        times, waiting ``retry_backoff_us * round`` between attempts, then
        gives up (degraded read)."""
        ssd = self.ssd
        fault_plan = ssd.fault_plan
        nxt = self._fault_round[i] + 1
        backoff = fault_plan.retry_backoff_us * nxt
        if nxt > fault_plan.max_retries:
            state = self._state[i]
            self._release(i)
            ssd._degraded_read(state, RetryExhaustedError(
                f"sense still failing after "
                f"{fault_plan.max_retries} retries"
            ))
            return
        self.metrics.fault_retries += 1
        if nxt >= self._fault_failures[i]:
            # the re-issued sense succeeds: it is the plan's own first SENSE
            self.sim.after(backoff, partial(self._advance, i))
        else:
            self._fault_round[i] = nxt
            self.sim.after(backoff, partial(self._fault_retry, i))

    def _fault_retry(self, i: int) -> None:
        self._plane[i].occupy(self.t_read, "FAULT", self._fault_cb, i,
                              self._label[i])
