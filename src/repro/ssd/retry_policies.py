"""The evaluated SSD read-retry schemes (SecIII-B, SecVI-A).

Each policy compiles a page read into a timed plan — a :class:`PlanBuild`
holding a sequence of SENSE (plane) and TRANSFER(+decode) (channel, ECC)
phases — by sampling outcomes from the
:class:`~repro.ssd.ecc_model.EccOutcomeModel`.  The read pipeline
(:mod:`repro.ssd.read_pipeline`) then walks the plan through the contended
resources; all scheme-specific logic for the seven *static* paper
configurations lives here.  The *history-driven* family (per-block
optimal-VREF caching, online threshold adaptation, retention-age VREF
prediction) lives in :mod:`repro.ssd.adaptive` and registers through the
same :func:`make_policy` entry point.

==========  =====================================================================
Policy      Mechanism
==========  =====================================================================
SSDzero     Hypothetical: no read ever retries (upper bound).
SSDone      Ideal reactive retry: one voltage-adjusted re-read always suffices
            (NRR = 1), but the failed first transfer + failed decode are paid.
SENC        Sentinel [23]: reactive; reading the sentinel cells may need an
            *extra* off-chip read (page-type dependent), and the predicted
            VREF occasionally misses (NRR averages ~1.2).
SWR         Swift-Read [32]: reactive; the retry is a single flash command
            performing two senses in-chip, then one transfer + short decode.
SWR+        SWR plus proactive VREF tracking [19]: a fraction of reads start
            from pre-optimised voltages and never fail in the first place.
RPSSD       RiF's RP moved to the *controller*: doomed decodes are aborted
            after tPRED (killing ECCWAIT), but uncorrectable pages still
            cross the channel.
RiFSSD      The paper's scheme: on-die RP + RVS.  Predicted-uncorrectable
            pages are re-read in-die and never transferred; only
            mispredictions ever ship a bad page.
OVCSSD      Per-block optimal-VREF cache (Park et al.): starts the retry walk
            at the level the block's last read revealed.
OCASSD      Online threshold adaptation (Peleato et al.): a drive-wide VREF
            estimate updated from every decode's ones-count feedback.
RVPSSD      Retention-age VREF prediction (Cai et al.): dwell time maps to a
            starting level through the calibrated retention model.
==========  =====================================================================
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from ..config import NandTimings
from ..errors import ConfigError
from .ecc_model import EccOutcomeModel

#: Channel-usage tags (Fig. 18 categories; IDLE/ECCWAIT are derived by the
#: resources, not tagged on jobs).
TAG_COR = "COR"
TAG_UNCOR = "UNCOR"
TAG_WRITE = "WRITE"
TAG_GC = "GC"

#: Safety bound on reactive retry rounds (vendor tables are finite).
MAX_RETRY_ROUNDS = 8


#: Phase kinds of the flat tuple encoding of a plan (see
#: :class:`PlanBuild`): each phase is ``(kind, duration, tag, decode_us)``.
#: A SENSE occupies the page's plane for ``duration``; a TRANSFER occupies
#: its channel, and with ``decode_us`` set the page streams into the
#: channel's ECC buffer (the transfer is gated on a free slot) and a
#: decode of that duration follows.  A TRANSFER without ``decode_us``
#: (e.g. Sentinel's spare-cell read) goes to the controller's own buffer
#: and is not gated.
K_SENSE = 0
K_TRANSFER = 1


class PlanBuild:
    """Mutable, reusable accumulator a policy's :meth:`plan_into` fills.

    Structure-of-arrays friendly: phases are flat ``(kind, duration, tag,
    decode_us)`` tuples, and the object is reset and reused per read by the
    pipeline, so compiling a plan allocates (almost) nothing.
    """

    __slots__ = ("phases", "rber", "senses", "retried", "in_die_retry",
                 "rp_predicted_retry", "uncorrectable_transfers")

    def __init__(self):
        self.phases: List[tuple] = []
        self.reset(0.0)

    def reset(self, rber: float) -> None:
        del self.phases[:]
        self.rber = rber
        #: total senses incl. in-command ones
        self.senses = 0
        #: any retry happened (any scheme)
        self.retried = False
        #: the retry was resolved inside the die (RiF)
        self.in_die_retry = False
        self.rp_predicted_retry: Optional[bool] = None
        #: doomed pages that crossed the channel
        self.uncorrectable_transfers = 0

    def trace_args(self) -> dict:
        """Compact JSON-compatible summary attached to ``read.plan`` trace
        instants — enough to explain *why* a traced read took its path."""
        args = {
            "rber": self.rber,
            "senses": self.senses,
            "phases": len(self.phases),
            "retried": self.retried,
            "in_die_retry": self.in_die_retry,
            "uncorrectable_transfers": self.uncorrectable_transfers,
        }
        if self.rp_predicted_retry is not None:
            args["rp_predicted_retry"] = self.rp_predicted_retry
        return args


class PolicyName(str, enum.Enum):
    """Registry keys of the evaluated SSD configurations."""

    SSD_ZERO = "SSDzero"
    SSD_ONE = "SSDone"
    SENC = "SENC"
    SWR = "SWR"
    SWR_PLUS = "SWR+"
    RPSSD = "RPSSD"
    RIF = "RiFSSD"
    # history-driven family (repro.ssd.adaptive)
    OVC = "OVCSSD"
    OCA = "OCASSD"
    RVP = "RVPSSD"


class ReadRetryPolicy:
    """Base class: shared plan-building vocabulary.

    Policies are stateless by default: :meth:`plan_into` is a pure
    function of ``rber`` and the RNG stream.  History-driven policies
    (:mod:`repro.ssd.adaptive`) set ``stateful = True`` and implement the
    state hooks below; the read pipeline calls :meth:`begin_read` with
    the page's identity immediately before compiling its plan, and
    :func:`repro.ssd.refresh.fast_forward` calls :meth:`on_fast_forward`
    when drive age jumps invalidate what was learned.
    """

    name: PolicyName

    #: True for history-driven policies with per-drive mutable state.
    stateful = False

    def __init__(self, timings: NandTimings, model: EccOutcomeModel):
        self.timings = timings
        self.model = model

    # --- stateful-policy hooks (no-ops for the static schemes) -------------------

    def begin_read(self, block_key, retention_days: float) -> None:
        """Receive the upcoming read's identity (called only when
        ``stateful``; must not draw from the RNG stream)."""

    def on_fast_forward(self, retention_days: float, pe_delta: float) -> None:
        """Drive age jumped: discard learned state."""

    def export_state(self) -> Optional[dict]:
        """JSON-ready snapshot of learned state (``None`` when stateless)."""
        return None

    # --- the one required hook ---------------------------------------------------

    def plan_into(self, b: PlanBuild, rber: float) -> None:
        """Sample outcomes and fill ``b`` with flat phase tuples.

        This is the single source of policy logic: a plan's phases and
        RNG draws are fixed here, before the pipeline executes it.
        """
        raise NotImplementedError

    # --- shared plan fragments -----------------------------------------------------

    def _round(self, b: PlanBuild, sense_us: float, senses: int,
               success: bool, t_ecc: float) -> None:
        """Append one sense+transfer+decode round."""
        tag = TAG_COR if success else TAG_UNCOR
        b.phases.append((K_SENSE, sense_us, TAG_COR, None))
        b.phases.append((K_TRANSFER, self.timings.t_dma, tag, t_ecc))
        b.senses += senses
        if not success:
            b.uncorrectable_transfers += 1

    #: Senses combined by the last-resort soft-decision recovery.
    SOFT_RECOVERY_READS = 5

    def _soft_recovery_round(self, b: PlanBuild) -> None:
        """Last-resort recovery after the retry budget: K staggered-VREF
        senses combined into soft LLRs decode far beyond the hard-decision
        capability (:mod:`repro.ldpc.soft`), at the price of K page reads
        and a long soft decode — how real SSDs avoid declaring data loss."""
        t = self.timings
        b.retried = True
        b.phases.append(
            (K_SENSE, t.t_read * self.SOFT_RECOVERY_READS, TAG_COR, None)
        )
        b.phases.append((
            K_TRANSFER,
            t.t_dma * 2,  # soft data is wider than one hard page
            TAG_COR,
            2.0 * self.model.ecc.t_ecc_max,
        ))
        b.senses += self.SOFT_RECOVERY_READS

    def _reactive_swift_rounds(self, b: PlanBuild, rber: float) -> None:
        """Voltage-adjusted re-reads via the Swift-Read command, repeated
        until the decode succeeds (bounded); falls back to soft-decision
        recovery if the budget is exhausted."""
        t = self.timings
        for _ in range(MAX_RETRY_ROUNDS):
            b.retried = True
            ok, t_ecc = self.model.retried_decode_outcome(rber)
            self._round(b, t.t_read + t.t_swift_extra, 2, ok, t_ecc)
            if ok:
                return
        self._soft_recovery_round(b)


class SSDZeroPolicy(ReadRetryPolicy):
    """No read ever retries; decodes are always short and successful."""

    name = PolicyName.SSD_ZERO

    def plan_into(self, b: PlanBuild, rber: float) -> None:
        self._round(b, self.timings.t_read, 1, True,
                    self.model.healthy_decode(rber))


class SSDOnePolicy(ReadRetryPolicy):
    """Ideal reactive retry: NRR = 1 for every retried read."""

    name = PolicyName.SSD_ONE

    def plan_into(self, b: PlanBuild, rber: float) -> None:
        ok, t_ecc = self.model.first_decode_outcome(rber)
        self._round(b, self.timings.t_read, 1, ok, t_ecc)
        if ok:
            return
        b.retried = True
        for _ in range(MAX_RETRY_ROUNDS):
            ok, t_ecc = self.model.retried_decode_outcome(rber)
            self._round(b, self.timings.t_read, 1, ok, t_ecc)
            if ok:
                return
        self._soft_recovery_round(b)


class SentinelPolicy(ReadRetryPolicy):
    """Sentinel [23]: spare-cell error indicators predict near-optimal VREF,
    but reading them may need an extra off-chip read, and the prediction
    misses often enough that NRR averages ~1.2.

    Parameters mirror the paper's description: ``p_extra_read`` is the
    probability the sentinel cells need different VREF values than the
    failed page (an extra sense + transfer), ``p_vref_miss`` the probability
    the predicted voltage still fails to decode (0.2 -> NRR ~= 1.2)."""

    name = PolicyName.SENC

    def __init__(self, timings: NandTimings, model: EccOutcomeModel,
                 p_extra_read: float = 2.0 / 3.0, p_vref_miss: float = 0.2):
        super().__init__(timings, model)
        if not 0 <= p_extra_read <= 1 or not 0 <= p_vref_miss <= 1:
            raise ConfigError("Sentinel probabilities must be in [0, 1]")
        self.p_extra_read = p_extra_read
        self.p_vref_miss = p_vref_miss

    def plan_into(self, b: PlanBuild, rber: float) -> None:
        t = self.timings
        ok, t_ecc = self.model.first_decode_outcome(rber)
        self._round(b, t.t_read, 1, ok, t_ecc)
        if ok:
            return
        b.retried = True
        if self.model.bernoulli(self.p_extra_read):
            # sentinel-cell read: full page sense + off-chip transfer, no
            # LDPC decode (the controller only inspects the sentinel bits)
            b.phases.append((K_SENSE, t.t_read, TAG_COR, None))
            b.phases.append((K_TRANSFER, t.t_dma, TAG_UNCOR, None))
            b.senses += 1
            b.uncorrectable_transfers += 1
        for _ in range(MAX_RETRY_ROUNDS):
            if self.model.bernoulli(self.p_vref_miss):
                # predicted VREF missed: another failed full round
                self._round(b, t.t_read, 1, False,
                            self.model.latency.latency_us(rber, failed=True))
                continue
            ok, t_ecc = self.model.retried_decode_outcome(rber)
            self._round(b, t.t_read, 1, ok, t_ecc)
            if ok:
                return
        self._soft_recovery_round(b)


class SwiftReadPolicy(ReadRetryPolicy):
    """SWR: reactive Swift-Read retries."""

    name = PolicyName.SWR

    def plan_into(self, b: PlanBuild, rber: float) -> None:
        ok, t_ecc = self.model.first_decode_outcome(rber)
        self._round(b, self.timings.t_read, 1, ok, t_ecc)
        if not ok:
            self._reactive_swift_rounds(b, rber)


class SwiftReadPlusPolicy(SwiftReadPolicy):
    """SWR+: Swift-Read plus proactive VREF tracking [19] — a fraction of
    reads start from pre-optimised voltages and behave like healthy reads."""

    name = PolicyName.SWR_PLUS

    def __init__(self, timings: NandTimings, model: EccOutcomeModel,
                 p_tracked: float = 0.5):
        super().__init__(timings, model)
        if not 0 <= p_tracked <= 1:
            raise ConfigError("p_tracked must be in [0, 1]")
        self.p_tracked = p_tracked

    def plan_into(self, b: PlanBuild, rber: float) -> None:
        if self.model.bernoulli(self.p_tracked):
            # pre-optimised voltages
            ok, t_ecc = self.model.retried_decode_outcome(rber)
            self._round(b, self.timings.t_read, 1, ok, t_ecc)
            if not ok:
                self._reactive_swift_rounds(b, rber)
            return
        super().plan_into(b, rber)


class RpAtControllerPolicy(ReadRetryPolicy):
    """RPSSD: the RP predictor sits in the SSD controller.  A predicted-
    uncorrectable page still burns the transfer, but its decode is aborted
    after tPRED instead of dragging for the full failed-decode latency."""

    name = PolicyName.RPSSD

    def plan_into(self, b: PlanBuild, rber: float) -> None:
        t = self.timings
        ok, t_ecc = self.model.first_decode_outcome(rber)
        rp_retry = self.model.rp_predicts_retry(rber)
        b.rp_predicted_retry = rp_retry
        if rp_retry:
            # decode aborted after the controller-side prediction; the page
            # is discarded regardless of its true correctability
            self._round(b, t.t_read, 1, False, t.t_pred)
            self._reactive_swift_rounds(b, rber)
            return
        self._round(b, t.t_read, 1, ok, t_ecc)
        if not ok:
            # RP missed (false clean): the full failed decode was paid
            self._reactive_swift_rounds(b, rber)


class RifPolicy(ReadRetryPolicy):
    """RiFSSD: the ODEAR engine runs RP after every sense (tPRED added to
    the plane occupancy) and resolves predicted failures *inside the die*
    with an RVS re-read — the failed sense never touches the channel.

    ``recheck_reread`` implements the paper's footnote-4 extension: when
    the Swift-Read voltage estimate cannot be trusted to always land below
    the capability, RP also inspects the *second* sensed page (one more
    tPRED on the plane) and, if it still looks uncorrectable, the die
    performs additional in-die rounds before anything is transferred."""

    name = PolicyName.RIF

    def __init__(self, timings: NandTimings, model: EccOutcomeModel,
                 recheck_reread: bool = False, max_in_die_rounds: int = 3):
        super().__init__(timings, model)
        if max_in_die_rounds < 1:
            raise ConfigError("max_in_die_rounds must be >= 1")
        self.recheck_reread = recheck_reread
        self.max_in_die_rounds = max_in_die_rounds

    def plan_into(self, b: PlanBuild, rber: float) -> None:
        t = self.timings
        rp_retry = self.model.rp_predicts_retry(rber)
        b.rp_predicted_retry = rp_retry
        if rp_retry:
            # in-die retry: sense + prediction + one RVS re-read, then a
            # single transfer of the corrected page
            b.retried = True
            b.in_die_retry = True
            sense_us = t.t_read + t.t_pred + t.t_swift_extra
            senses = 2
            rounds = 1
            ok, t_ecc = self.model.retried_decode_outcome(rber)
            if self.recheck_reread:
                # RP inspects the re-read too (one more tPRED per round):
                # a still-uncorrectable re-read is caught on-die with the
                # Fig.-11 accuracy and re-read again instead of being
                # shipped to a doomed decode
                retry_rber = self.model.retry_rber(rber)
                sense_us += t.t_pred
                while (not ok
                       and rounds < self.max_in_die_rounds
                       and self.model.rp_catches_failed_page(retry_rber)):
                    sense_us += t.t_swift_extra + t.t_pred
                    senses += 1
                    rounds += 1
                    ok, t_ecc = self.model.retried_decode_outcome(rber)
            self._round(b, sense_us, senses, ok, t_ecc)
            if not ok:
                self._reactive_swift_rounds(b, rber)
            return
        ok, t_ecc = self.model.first_decode_outcome(rber)
        self._round(b, t.t_read + t.t_pred, 1, ok, t_ecc)
        if not ok:
            # false clean: RP let an uncorrectable page through; fall back
            # to a controller-driven Swift-Read
            self._reactive_swift_rounds(b, rber)


#: Registry mapping policy names to constructors.
POLICIES: Dict[PolicyName, Callable[..., ReadRetryPolicy]] = {
    PolicyName.SSD_ZERO: SSDZeroPolicy,
    PolicyName.SSD_ONE: SSDOnePolicy,
    PolicyName.SENC: SentinelPolicy,
    PolicyName.SWR: SwiftReadPolicy,
    PolicyName.SWR_PLUS: SwiftReadPlusPolicy,
    PolicyName.RPSSD: RpAtControllerPolicy,
    PolicyName.RIF: RifPolicy,
}


def _ensure_adaptive_registered() -> None:
    """Fold the history-driven family into ``POLICIES`` on first use.

    :mod:`repro.ssd.adaptive` imports this module for the base class, so
    the registration runs lazily instead of at import time.
    """
    if PolicyName.OVC not in POLICIES:
        from .adaptive import ADAPTIVE_POLICIES

        POLICIES.update(ADAPTIVE_POLICIES)


def check_policy(name) -> PolicyName:
    """The :class:`PolicyName` of ``name``; any other name is a
    :class:`ConfigError`."""
    try:
        return PolicyName(name)
    except ValueError:
        valid = ", ".join(p.value for p in PolicyName)
        raise ConfigError(
            f"unknown policy {name!r}; valid policies: {valid}") from None


def make_policy(
    name, timings: NandTimings, model: EccOutcomeModel, **kwargs
) -> ReadRetryPolicy:
    """Instantiate a policy by name (string or :class:`PolicyName`)."""
    _ensure_adaptive_registered()
    return POLICIES[check_policy(name)](timings, model, **kwargs)
