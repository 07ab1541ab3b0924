"""Retention-refresh planning (SecIV-B footnote 3).

The paper assumes blocks are refreshed monthly: periodic rewriting bounds
retention age, and therefore how often reads cross the ECC capability and
enter read-retry.  The refresh period is a real design knob — shorter
periods suppress retries but burn program/erase cycles and write bandwidth.
This module provides the closed-form planner behind that trade-off:

* :meth:`RefreshPlanner.cold_retry_probability` — probability a read to a
  steady-state page (age uniform in ``[0, R)``) exceeds the capability,
  integrating over the lognormal crossing-time variation;
* :meth:`RefreshPlanner.refresh_write_overhead` — fraction of aggregate
  channel bandwidth consumed by rewriting the device every ``R`` days;
* :meth:`RefreshPlanner.read_retry_overhead` — extra channel traffic from
  retries under a given retry scheme's per-retry cost;
* :meth:`RefreshPlanner.optimal_refresh_days` — the ``R`` minimising the
  combined overhead, and how it shifts with wear (it shrinks) and with RiF
  (whose cheap retries push the optimum far out — quantifying the paper's
  observation that RiF tolerates retention where reactive schemes cannot).

A simulated drive's wear and retention window are fixed when it is built
(``pe_cycles`` and ``ReliabilityConfig.refresh_days``); a fleet expresses a
drive's age through its ``refresh_days``, not by aging a live drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..config import SSDConfig
from ..errors import ConfigError
from ..nand.rber import RberModel


@dataclass(frozen=True)
class RefreshAssessment:
    """Overheads of one candidate refresh period at one wear level."""

    refresh_days: float
    cold_retry_probability: float
    refresh_write_overhead: float   # fraction of channel bandwidth
    read_retry_overhead: float      # fraction of read traffic wasted
    endurance_overhead: float       # fraction of the P/E budget consumed
    total_overhead: float


class RefreshPlanner:
    """Analytic refresh-period planner over the calibrated RBER model."""

    def __init__(
        self,
        config: Optional[SSDConfig] = None,
        quadrature_points: int = 400,
        service_years: float = 5.0,
        pe_budget: float = 3000.0,
    ):
        if quadrature_points < 10:
            raise ConfigError("need at least 10 quadrature points")
        if service_years <= 0 or pe_budget <= 0:
            raise ConfigError("service_years and pe_budget must be positive")
        self.config = config or SSDConfig()
        self.model = RberModel(self.config.reliability, self.config.ecc)
        self.quadrature_points = quadrature_points
        self.service_years = service_years
        self.pe_budget = pe_budget
        r = self.config.reliability
        self._sigma = math.hypot(r.block_variation_sigma, r.page_variation_sigma)

    # --- retry incidence ----------------------------------------------------------

    def cold_retry_probability(self, pe_cycles: float, refresh_days: float) -> float:
        """P[a steady-state cold read needs a retry] for period ``R``.

        Page age is uniform on [0, R); the page's capability-crossing time
        T is lognormal around the calibrated median.  P = E[max(0, 1 - T/R)]
        clipped to [0, 1], evaluated by quantile quadrature over T.
        """
        if refresh_days <= 0:
            raise ConfigError("refresh_days must be positive")
        median = self.model.t_cross_days(pe_cycles)
        total = 0.0
        n = self.quadrature_points
        for i in range(n):
            # mid-point quantiles of the lognormal crossing time
            u = (i + 0.5) / n
            z = _inv_norm(u)
            t_cross = median * math.exp(self._sigma * z)
            total += max(0.0, 1.0 - t_cross / refresh_days)
        return min(total / n, 1.0)

    # --- costs ---------------------------------------------------------------------

    def refresh_write_overhead(self, refresh_days: float) -> float:
        """Share of aggregate channel bandwidth spent rewriting everything
        once per period (each page moved = one read-out + one write-in)."""
        if refresh_days <= 0:
            raise ConfigError("refresh_days must be positive")
        g = self.config.geometry
        bytes_per_day = g.capacity_bytes / refresh_days
        channel_bytes_per_day = (
            self.config.bandwidth.channel_bytes_per_us * 86_400e6 * g.channels
        )
        return min(2.0 * bytes_per_day / channel_bytes_per_day, 1.0)

    def read_retry_overhead(
        self,
        pe_cycles: float,
        refresh_days: float,
        cold_read_ratio: float = 0.75,
        retry_channel_cost: float = 1.0,
    ) -> float:
        """Fraction of read channel traffic wasted on retries.

        ``retry_channel_cost`` is the extra *channel* transfers per retried
        read: ~1 for ideal reactive schemes (the doomed first transfer),
        up to ~2 for Sentinel, and ~0 for RiF (in-die retries)."""
        if not 0 <= cold_read_ratio <= 1:
            raise ConfigError("cold_read_ratio must be in [0, 1]")
        if retry_channel_cost < 0:
            raise ConfigError("retry_channel_cost must be >= 0")
        p_retry = cold_read_ratio * self.cold_retry_probability(
            pe_cycles, refresh_days
        )
        extra = p_retry * retry_channel_cost
        return extra / (1.0 + extra)

    def endurance_overhead(self, refresh_days: float) -> float:
        """Fraction of the device's P/E budget consumed by refresh rewrites
        over the whole service life — the constraint that actually keeps
        real fleets from refreshing every few days (each refresh erases
        every block once)."""
        if refresh_days <= 0:
            raise ConfigError("refresh_days must be positive")
        cycles = 365.0 * self.service_years / refresh_days
        return cycles / self.pe_budget

    # --- planning ------------------------------------------------------------------------

    def assess(
        self,
        pe_cycles: float,
        refresh_days: float,
        cold_read_ratio: float = 0.75,
        retry_channel_cost: float = 1.0,
    ) -> RefreshAssessment:
        """Combined overhead picture of one candidate period."""
        p = self.cold_retry_probability(pe_cycles, refresh_days)
        w = self.refresh_write_overhead(refresh_days)
        r = self.read_retry_overhead(
            pe_cycles, refresh_days, cold_read_ratio, retry_channel_cost
        )
        e = self.endurance_overhead(refresh_days)
        return RefreshAssessment(
            refresh_days=refresh_days,
            cold_retry_probability=p,
            refresh_write_overhead=w,
            read_retry_overhead=r,
            endurance_overhead=e,
            total_overhead=w + r + e,
        )

    def optimal_refresh_days(
        self,
        pe_cycles: float,
        candidates: Sequence[float] = tuple(range(2, 61, 2)),
        cold_read_ratio: float = 0.75,
        retry_channel_cost: float = 1.0,
    ) -> RefreshAssessment:
        """The candidate period with the lowest combined overhead."""
        if not candidates:
            raise ConfigError("no candidate periods")
        best = None
        for days in candidates:
            assessment = self.assess(
                pe_cycles, float(days), cold_read_ratio, retry_channel_cost
            )
            if best is None or assessment.total_overhead < best.total_overhead:
                best = assessment
        return best


def _inv_norm(u: float) -> float:
    """Standard-normal quantile (delegates to the variation model's
    rational approximation)."""
    from ..nand.variation import _unit_to_standard_normal

    return _unit_to_standard_normal(u)
