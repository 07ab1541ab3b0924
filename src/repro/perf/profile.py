"""Profiling harness for the simulator's per-read hot path.

Two complementary views of where a :class:`~repro.campaign.spec.RunSpec`
spends its time:

* **Wall clock** — :func:`profile_spec` runs the spec's three phases
  (trace generation, simulator construction, event loop) under
  ``cProfile``, buckets the self time by ``repro`` subsystem, splits the
  ``repro/ssd`` bucket by module (event loop, resources, pipeline
  transitions, plan compile, reliability/ECC sampling, FTL, simulator),
  and keeps the top functions by self-time.  This is the view that drove the
  memoization work: it shows *Python* cost, not simulated time.
* **Simulated time** — after the run, the busy microseconds of every
  plane, channel and decoder (``busy_time_by_tag``), each channel's
  ``blocked_time`` (its ECCWAIT) and the host link's pages × ``page_us``
  are summed per resource class and tag.  This is the view that says
  where the *modeled hardware* spends its microseconds.  Every run keeps
  these counters in O(1) memory, so the table covers the whole run and
  the profiled run carries no tracer; its ``ch:*`` rows add up to
  ``channel_usage()``'s busy time.

The report also snapshots the run's memo-cache counters so a profile
always states its cache regime (a cold-cache profile looks nothing like a
steady-state one).  Its table lists every cache of
``SSDSimulator.cache_stats()`` with hits, lookups and hit rate, so a memo
audit starts from the caches the code actually has.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..campaign.spec import RunSpec, build_simulator, build_trace

#: Self-time buckets, matched by module-path prefix (first hit wins).
SUBSYSTEMS: Tuple[str, ...] = (
    "repro/ssd", "repro/nand", "repro/ldpc", "repro/workloads",
    "repro/perf", "repro/core", "repro/obs",
)

#: The ``repro/ssd`` bucket split by the layer a read crosses: group name
#: and the module files in it.  Every other ``repro/ssd`` module (host
#: drivers, metrics) is ``other``, so the groups add up to the bucket.
SSD_MODULES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("events", ("events.py",)),
    ("resources", ("resources.py",)),
    ("read_pipeline", ("read_pipeline.py",)),
    ("retry_policies", ("retry_policies.py", "adaptive.py")),
    ("reliability", ("reliability.py", "ecc_model.py")),
    ("ftl", ("ftl.py",)),
    ("simulator", ("simulator.py",)),
)


@dataclass(frozen=True)
class HotFunction:
    """One row of the cProfile top-N table."""

    where: str  # "file:line(function)"
    calls: int
    tottime: float
    cumtime: float

    def to_dict(self) -> Dict[str, Any]:
        return {"where": self.where, "calls": self.calls,
                "tottime": self.tottime, "cumtime": self.cumtime}


@dataclass
class ProfileReport:
    """Everything :func:`profile_spec` measured, JSON-ready."""

    spec: Dict[str, Any]
    total_seconds: float
    #: wall seconds per run phase (trace / build / run)
    phases: Dict[str, float]
    #: cProfile self-time per subsystem bucket (seconds)
    subsystems: Dict[str, float]
    top_functions: List[HotFunction]
    #: simulated busy microseconds per (resource, tag)
    sim_busy_us: Dict[str, float]
    cache_stats: List[Dict[str, Any]] = field(default_factory=list)
    #: the ``repro/ssd`` self time by module group (:data:`SSD_MODULES`)
    ssd_modules: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec,
            "total_seconds": self.total_seconds,
            "phases": self.phases,
            "subsystems": self.subsystems,
            "ssd_modules": self.ssd_modules,
            "top_functions": [f.to_dict() for f in self.top_functions],
            "sim_busy_us": self.sim_busy_us,
            "cache_stats": self.cache_stats,
        }

    def format_table(self) -> str:
        lines = [f"profile: {self.spec.get('workload')} / "
                 f"{self.spec.get('policy')} @ pe={self.spec.get('pe_cycles')}"
                 f"  ({self.total_seconds:.3f} s wall)"]
        lines.append("-- wall phases --")
        for name, secs in self.phases.items():
            lines.append(f"  {name:<18s} {secs:8.3f} s")
        lines.append("-- self-time by subsystem --")
        for name, secs in sorted(self.subsystems.items(),
                                 key=lambda kv: -kv[1]):
            lines.append(f"  {name:<18s} {secs:8.3f} s")
        if self.ssd_modules:
            lines.append("-- repro/ssd self-time by module --")
            for name, secs in sorted(self.ssd_modules.items(),
                                     key=lambda kv: -kv[1]):
                lines.append(f"  {name:<18s} {secs:8.3f} s")
        lines.append("-- hottest functions (self time) --")
        for fn in self.top_functions:
            lines.append(f"  {fn.tottime:7.3f} s {fn.calls:>9d}x  {fn.where}")
        if self.sim_busy_us:
            lines.append("-- simulated busy time by resource:tag (us) --")
            for key, us in sorted(self.sim_busy_us.items(),
                                  key=lambda kv: -kv[1]):
                lines.append(f"  {key:<24s} {us:14.1f}")
        if self.cache_stats:
            lines.append("-- memo caches (hits / lookups) --")
            for cache in self.cache_stats:
                lookups = cache["hits"] + cache["misses"]
                lines.append(f"  {cache['name']:<24s} {cache['hits']:>10d} / "
                             f"{lookups:<10d} {cache['hit_rate']:6.1%}")
        return "\n".join(lines)


def _bucket(path: str) -> Optional[str]:
    norm = path.replace("\\", "/")
    for prefix in SUBSYSTEMS:
        if prefix in norm:
            return prefix
    return "other" if "repro" in norm else None


def _ssd_module(path: str) -> Optional[str]:
    """The :data:`SSD_MODULES` group of a ``repro/ssd`` file, else None."""
    norm = path.replace("\\", "/")
    if "repro/ssd/" not in norm:
        return None
    filename = norm.rsplit("/", 1)[-1]
    for group, files in SSD_MODULES:
        if filename in files:
            return group
    return "other"


def _short_location(func: Tuple[str, int, str]) -> str:
    path, line, name = func
    norm = path.replace("\\", "/")
    if "repro/" in norm:
        norm = "repro/" + norm.split("repro/", 1)[1]
    else:
        norm = norm.rsplit("/", 1)[-1]
    return f"{norm}:{line}({name})"


def _resource_class(name: str) -> str:
    """Collapse instance names (``plane12``, ``ch0``, ``ecc1.decoder``) into
    their class so the busy-time table stays readable at any geometry."""
    return "".join(ch for ch in name if not ch.isdigit())


def _busy_by_class(ssd) -> Dict[str, float]:
    """Simulated busy microseconds of a run per ``class:tag``, read off
    the resources' counters: each plane's, channel's and decoder's
    ``busy_time_by_tag``, each channel's nonzero ``blocked_time`` as
    ``ch:ECCWAIT``, and the host link's booked pages × ``page_us``.

    Planes, channels and decoders count a job when it finishes, but the
    host link counts a page when it is booked, so on a run cut short
    (``time_limit_us``) the ``host:*`` rows include pages still crossing
    at the cut: the table is exact for a run driven to completion."""
    busy: Dict[str, float] = {}

    def add(name: str, tag: str, us: float) -> None:
        key = f"{_resource_class(name)}:{tag}"
        busy[key] = busy.get(key, 0.0) + us

    for resource in (*ssd.planes, *ssd.channels,
                     *(ecc.decoder for ecc in ssd.eccs)):
        for tag, us in resource.busy_time_by_tag.items():
            add(resource.name, tag, us)
    for channel in ssd.channels:
        if channel.blocked_time > 0.0:
            add(channel.name, "ECCWAIT", channel.blocked_time)
    link = ssd.host_link
    for tag, pages in link.pages_by_tag.items():
        add(link.name, tag, pages * link.page_us)
    return busy


def profile_spec(
    spec: RunSpec,
    top: int = 15,
    trace_resources: bool = True,
) -> ProfileReport:
    """Profile one spec end to end and return the combined report.

    The profiled run is a *normal* run — caches in whatever state the
    process has them — so profile numbers match what ``execute`` costs.
    ``trace_resources=False`` leaves the simulated busy-time table empty;
    that table counts host-link pages when they are booked, so it is exact
    only for a run driven to completion (see :func:`_busy_by_class`).
    """
    profiler = cProfile.Profile()
    phases: Dict[str, float] = {}

    wall0 = time.perf_counter()
    profiler.enable()
    t0 = time.perf_counter()
    trace = build_trace(spec)
    phases["build_trace"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    ssd = build_simulator(spec)
    phases["build_simulator"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    ssd.run_trace(trace, **spec.run_kwargs())
    phases["run_trace"] = time.perf_counter() - t0
    profiler.disable()
    total = time.perf_counter() - wall0

    stats = pstats.Stats(profiler)
    subsystems: Dict[str, float] = {}
    ssd_modules: Dict[str, float] = {}
    rows: List[HotFunction] = []
    for func, (_cc, ncalls, tottime, cumtime, _callers) in stats.stats.items():
        bucket = _bucket(func[0])
        if bucket is not None:
            subsystems[bucket] = subsystems.get(bucket, 0.0) + tottime
        group = _ssd_module(func[0])
        if group is not None:
            ssd_modules[group] = ssd_modules.get(group, 0.0) + tottime
        rows.append(HotFunction(_short_location(func), ncalls,
                                tottime, cumtime))
    rows.sort(key=lambda r: -r.tottime)

    return ProfileReport(
        spec=spec.to_dict(),
        total_seconds=total,
        phases=phases,
        subsystems=subsystems,
        top_functions=rows[:top],
        sim_busy_us=_busy_by_class(ssd) if trace_resources else {},
        cache_stats=ssd.cache_stats(),
        ssd_modules=ssd_modules,
    )
