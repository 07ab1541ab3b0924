"""Discrete-event SSD simulator (the MQSim-E stand-in of SecVI).

Architecture (Fig. 5 of the paper): a host link feeds an SSD controller
that fans host requests out over ``channels x dies x planes``; planes sense
independently, each channel moves one page at a time, and each channel owns
one LDPC decoder with a finite input buffer — when that buffer is full the
channel stalls (the paper's ECCWAIT).

The simulator does not decode real codewords per page (neither does the
paper's); it draws decode outcomes, latencies and RP verdicts from the
calibrated curves of :mod:`repro.ldpc` and :mod:`repro.core`, and composes
them into event-accurate timing through pluggable read-retry policies —
the seven static paper configurations (:mod:`.retry_policies`) plus the
history-driven adaptive family (:mod:`.adaptive`).
"""

from .events import EventQueue, Simulator
from .resources import Channel, Ecc, Fifo
from .reliability import PageReliabilitySampler
from .ecc_model import EccOutcomeModel
from .retry_policies import (
    POLICIES,
    PlanBuild,
    PolicyName,
    make_policy,
)
from .ftl import PageMapFtl
from .metrics import SimMetrics, ChannelUsage, percentile
from .simulator import RESULT_SCHEMA_VERSION, SSDSimulator, SimulationResult
from .adaptive import (
    ADAPTIVE_POLICIES,
    AdaptivePolicy,
    OnlineAdaptationPolicy,
    OptimalVrefCachePolicy,
    RetentionPredictorPolicy,
)
from .host import ClosedLoopHost, TimedReplayHost

__all__ = [
    "EventQueue",
    "Simulator",
    "Fifo",
    "Channel",
    "Ecc",
    "PageReliabilitySampler",
    "EccOutcomeModel",
    "POLICIES",
    "PolicyName",
    "PlanBuild",
    "make_policy",
    "PageMapFtl",
    "SimMetrics",
    "ChannelUsage",
    "percentile",
    "SSDSimulator",
    "SimulationResult",
    "RESULT_SCHEMA_VERSION",
    "ClosedLoopHost",
    "TimedReplayHost",
    "ADAPTIVE_POLICIES",
    "AdaptivePolicy",
    "OptimalVrefCachePolicy",
    "OnlineAdaptationPolicy",
    "RetentionPredictorPolicy",
]
