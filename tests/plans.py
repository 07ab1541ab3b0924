"""Compile retry-policy plans the way the read pipeline does, for the
tests that inspect plan shapes."""

from collections import namedtuple

from repro.ssd.retry_policies import K_SENSE, K_TRANSFER, PlanBuild

#: Named view of one flat ``(kind, duration, tag, decode_us)`` phase tuple.
PlanPhase = namedtuple("PlanPhase", "kind duration tag decode_us")


def compile_plan(policy, rber: float) -> PlanBuild:
    """One read's plan: ``policy.plan_into`` a fresh :class:`PlanBuild`,
    its phases wrapped as :data:`PlanPhase` (equal to the raw tuples)."""
    build = PlanBuild()
    build.reset(rber)
    policy.plan_into(build, rber)
    build.phases[:] = [PlanPhase(*phase) for phase in build.phases]
    return build


def kinds(plan) -> list:
    return [phase.kind for phase in plan.phases]


def plane_time(plan) -> float:
    """Total plane occupancy: the SENSE phases' durations."""
    return sum(p.duration for p in plan.phases if p.kind == K_SENSE)


def channel_time(plan) -> float:
    """Total channel occupancy: the TRANSFER phases' durations."""
    return sum(p.duration for p in plan.phases if p.kind == K_TRANSFER)
