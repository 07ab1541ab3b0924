"""History-driven read-retry policies (ROADMAP item 3).

The static schemes in :mod:`repro.ssd.retry_policies` decide every read
from scratch; the literature RiF competes against instead *remembers*.
This module adds the three classic history-driven mechanisms as drop-in
policies with per-drive mutable state:

==========  =====================================================================
Policy      Mechanism
==========  =====================================================================
OVCSSD      Per-block optimal-VREF cache ("Reducing SSD Read Latency by
            Optimizing Read-Retry", Park et al.): the retry-table level a
            block's last read revealed becomes the starting point of the
            next read of that block.
OCASSD      Online read-threshold adaptation ("Adaptive Read Thresholds
            for NAND Flash", Peleato et al.): every decode's ones-count
            feedback nudges one drive-wide VREF estimate, so the starting
            level tracks the fleet-average drift without extra senses.
RVPSSD      Retention-age VREF prediction (Cai et al. retention
            characterization): dwell time maps straight to a starting
            level through retention thresholds calibrated against the
            drive's own RBER model, plus a small learned bias correction.
==========  =====================================================================

All three share one compile skeleton (:meth:`AdaptivePolicy.plan_into`):

* prediction absent or "default voltages" — a conventional first read,
  exactly SSDone/SWR's opening round;
* prediction within ``tolerance`` retry-table levels of the level the
  page actually needs — the read starts near-optimal and behaves like a
  proactively tracked read (SWR+'s tracked branch);
* prediction wrong — the mispredicted read fails deterministically at
  the full failed-decode latency (no RNG draw, the Sentinel vref-miss
  precedent), then the reactive Swift-Read walk recovers.

Determinism rules:

* :meth:`begin_read` (called by the read pipeline with the page's block
  key and retention age immediately before compiling its plan) never
  draws from the RNG stream, so learning never shifts the outcome
  model's draw order.
* learned state lives for the whole run: a drive's wear and retention
  window are fixed when it is built, so nothing ages it under the
  policy and nothing resets what it learned.
* learned state is exported as JSON-native data
  (:meth:`AdaptivePolicy.export_state`) into
  :class:`~repro.ssd.metrics.SimMetrics`, so campaign caching and the
  fleet rollups round-trip it bit-identically.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Optional

from ..config import NandTimings
from ..errors import ConfigError
from ..nand.rber import PageState
from ..nand.retry_table import level_for_rber
from .ecc_model import EccOutcomeModel
from .retry_policies import PlanBuild, PolicyName, ReadRetryPolicy

__all__ = [
    "ADAPTIVE_POLICIES",
    "AdaptivePolicy",
    "OnlineAdaptationPolicy",
    "OptimalVrefCachePolicy",
    "RetentionPredictorPolicy",
]

#: Retry-table depth predictions are clamped to (the default
#: :class:`~repro.nand.retry_table.RetryTable`).
N_LEVELS = 12


class AdaptivePolicy(ReadRetryPolicy):
    """Shared skeleton of the history-driven policies.

    Subclasses implement the three small hooks (`_predicted_level`,
    `_learn`, `_state_payload`); everything about plan shape,
    hit/mispredict accounting, and state bookkeeping lives here.

    ``tolerance`` is how many retry-table levels a prediction may be off
    while the read still decodes on the first attempt — per-page
    variation within a block spans about one level, so the default of 1
    absorbs it.
    """

    stateful = True

    def __init__(self, timings: NandTimings, model: EccOutcomeModel,
                 tolerance: int = 1):
        super().__init__(timings, model)
        if tolerance < 0:
            raise ConfigError(f"tolerance must be >= 0, got {tolerance}")
        self.tolerance = int(tolerance)
        self.hits = 0
        self.mispredicts = 0
        self._ctx_block: Optional[tuple] = None

    # --- state hooks (simulator-facing) ------------------------------------------

    def begin_read(self, block_key, retention_days: float) -> None:
        self._ctx_block = block_key

    def export_state(self) -> dict:
        state = {
            "policy": self.name.value,
            "hits": self.hits,
            "mispredicts": self.mispredicts,
        }
        state.update(self._state_payload())
        return state

    # --- subclass hooks -----------------------------------------------------------

    def _predicted_level(self) -> Optional[int]:
        """Starting retry-table level for the read announced by
        :meth:`begin_read`, or ``None`` when there is nothing to go on."""
        raise NotImplementedError

    def _learn(self, true_level: int) -> None:
        """Fold the level the read actually needed back into the state."""
        raise NotImplementedError

    def _state_payload(self) -> dict:
        """JSON-native (string keys, scalar/list/dict values) learned state."""
        raise NotImplementedError

    @staticmethod
    def _clamp(level: int) -> int:
        return min(max(level, 0), N_LEVELS)

    # --- plan compilation ----------------------------------------------------------

    def plan_into(self, b: PlanBuild, rber: float) -> None:
        t = self.timings
        pred = self._predicted_level()
        true_level = level_for_rber(
            rber, self.model.ecc.correction_capability, N_LEVELS)
        if pred is None or pred == 0:
            # conventional read at the default voltages (SSDone's opener)
            if pred == 0:
                if true_level <= self.tolerance:
                    self.hits += 1
                else:
                    self.mispredicts += 1
            ok, t_ecc = self.model.first_decode_outcome(rber)
            self._round(b, t.t_read, 1, ok, t_ecc)
            if not ok:
                self._reactive_swift_rounds(b, rber)
        elif abs(pred - true_level) <= self.tolerance:
            # near-optimal starting VREF: the read behaves like SWR+'s
            # proactively tracked branch
            self.hits += 1
            ok, t_ecc = self.model.retried_decode_outcome(rber)
            self._round(b, t.t_read, 1, ok, t_ecc)
            if not ok:
                self._reactive_swift_rounds(b, rber)
        else:
            # mispredicted starting VREF: deterministic failed round at
            # the full failed-decode latency (no RNG draw), then recover
            # through the reactive walk
            self.mispredicts += 1
            b.retried = True
            self._round(b, t.t_read, 1, False,
                        self.model.latency.latency_us(rber, failed=True))
            self._reactive_swift_rounds(b, rber)
        self._learn(true_level)
        self._ctx_block = None


class OptimalVrefCachePolicy(AdaptivePolicy):
    """OVCSSD: per-block optimal-VREF cache (Park et al.).

    Every read reveals the retry-table level its page needed; the cache
    remembers it per block and the next read of the same block starts
    there.  Retention drift between reads of a block is what the
    ``tolerance`` margin absorbs.
    """

    name = PolicyName.OVC

    #: Safety bound far above any simulated drive's block count.
    MAX_BLOCKS = 1 << 16

    def __init__(self, timings: NandTimings, model: EccOutcomeModel,
                 tolerance: int = 1):
        super().__init__(timings, model, tolerance=tolerance)
        self._cache: Dict[tuple, int] = {}

    def _predicted_level(self) -> Optional[int]:
        if self._ctx_block is None:
            return None
        return self._cache.get(self._ctx_block)

    def _learn(self, true_level: int) -> None:
        if self._ctx_block is None:
            return
        if (len(self._cache) >= self.MAX_BLOCKS
                and self._ctx_block not in self._cache):
            self._cache.clear()
        self._cache[self._ctx_block] = true_level

    def _state_payload(self) -> dict:
        return {
            "blocks": {
                "/".join(map(str, key)): level
                for key, level in self._cache.items()
            },
        }


class OnlineAdaptationPolicy(AdaptivePolicy):
    """OCASSD: online read-threshold adaptation (Peleato et al.).

    One drive-wide level estimate, nudged toward each read's revealed
    level by an exponential moving average — the simulator-level stand-in
    for adapting VREF from the decoder's ones-count feedback.  Converges
    to the drive's average drift without spending extra senses; pages far
    from the average (young or unusually weak) are its mispredictions.
    """

    name = PolicyName.OCA

    def __init__(self, timings: NandTimings, model: EccOutcomeModel,
                 tolerance: int = 1, alpha: float = 0.125):
        super().__init__(timings, model, tolerance=tolerance)
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = float(alpha)
        self._estimate = 0.0
        self._observations = 0

    def _predicted_level(self) -> Optional[int]:
        if self._observations == 0:
            return None
        return self._clamp(int(round(self._estimate)))

    def _learn(self, true_level: int) -> None:
        self._estimate += self.alpha * (true_level - self._estimate)
        self._observations += 1

    def _state_payload(self) -> dict:
        return {"estimate": self._estimate,
                "observations": self._observations}


class RetentionPredictorPolicy(AdaptivePolicy):
    """RVPSSD: retention-age VREF prediction (Cai et al.).

    When the simulator builds the drive (:meth:`calibrate`), the policy
    bisects the drive's own RBER model at the drive's wear for the
    retention ages at which the *median* page crosses each retry-level
    boundary; at read time the page's dwell time (which the FTL knows
    exactly) maps through those thresholds to a starting level.  A small
    EWMA bias correction absorbs systematic error, e.g. a drive whose
    pages run hotter than the median calibration.  Until it is
    calibrated the policy has no thresholds, and every age predicts the
    default voltages.
    """

    name = PolicyName.RVP

    _SEARCH_DAYS = 3650.0
    _BISECT_ITERS = 50

    def __init__(self, timings: NandTimings, model: EccOutcomeModel,
                 tolerance: int = 1, alpha: float = 0.125):
        super().__init__(timings, model, tolerance=tolerance)
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {alpha!r}")
        self.alpha = float(alpha)
        self._bias = 0.0
        self._ctx_base: Optional[int] = None
        self._thresholds: list = []

    def calibrate(self, sampler) -> None:
        """Set the thresholds: the retention ages (days) where the drive's
        median page crosses into each retry level, found by deterministic
        bisection of the variation-free
        :meth:`~repro.nand.rber.RberModel.median_rber` curve at the
        drive's wear."""
        rber_model, pe_cycles = sampler.model, float(sampler.pe_cycles)
        cap = self.model.ecc.correction_capability

        def median(days: float) -> float:
            return rber_model.median_rber(PageState(pe_cycles, days, 0))

        thresholds = []
        for level in range(1, N_LEVELS + 1):
            target = cap * (2.0 ** (level - 1))
            if median(self._SEARCH_DAYS) <= target:
                break
            if median(0.0) > target:
                thresholds.append(0.0)
                continue
            lo, hi = 0.0, self._SEARCH_DAYS
            for _ in range(self._BISECT_ITERS):
                mid = 0.5 * (lo + hi)
                if median(mid) > target:
                    hi = mid
                else:
                    lo = mid
            thresholds.append(hi)
        self._thresholds = thresholds

    def begin_read(self, block_key, retention_days: float) -> None:
        super().begin_read(block_key, retention_days)
        self._ctx_base = bisect.bisect_right(self._thresholds, retention_days)

    def _predicted_level(self) -> Optional[int]:
        if self._ctx_base is None:
            return None
        return self._clamp(self._ctx_base + int(round(self._bias)))

    def _learn(self, true_level: int) -> None:
        if self._ctx_base is None:
            return
        residual = true_level - self._ctx_base
        self._bias += self.alpha * (residual - self._bias)
        self._bias = min(max(self._bias, -float(N_LEVELS)), float(N_LEVELS))
        self._ctx_base = None

    def _state_payload(self) -> dict:
        return {"bias": self._bias, "thresholds": list(self._thresholds)}


#: Constructors :func:`repro.ssd.retry_policies.make_policy` folds into
#: its registry on first use.
ADAPTIVE_POLICIES: Dict[PolicyName, Callable[..., ReadRetryPolicy]] = {
    PolicyName.OVC: OptimalVrefCachePolicy,
    PolicyName.OCA: OnlineAdaptationPolicy,
    PolicyName.RVP: RetentionPredictorPolicy,
}
