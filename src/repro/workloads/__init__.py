"""Workload traces: format, synthetic generators, and characterisation.

The paper evaluates eight block-I/O traces (Table II): six from AliCloud
[51] and two from Systor [64].  The raw traces are not redistributable, so
:mod:`.synthetic` generates statistically matched stand-ins — same read
ratio, cold-read ratio, and footprint structure — validated against
Table II by :mod:`.stats` (see the ``table2`` benchmark).
"""

from .trace import IORequest, Trace
from .synthetic import WorkloadSpec, WORKLOADS, generate, workload_names
from .stats import TraceStats, characterize

__all__ = [
    "IORequest",
    "Trace",
    "WorkloadSpec",
    "WORKLOADS",
    "generate",
    "workload_names",
    "TraceStats",
    "characterize",
]
