"""Temperature acceleration of retention loss (Arrhenius model).

Charge leakage through the damaged tunnel oxide is thermally activated, so
retention ageing accelerates exponentially with temperature — the physics
behind HeatWatch ([20] in the paper) and behind JEDEC's practice of rating
enterprise retention at 40 °C operating / 30 °C power-off.  The standard
model is Arrhenius time scaling:

    AF(T) = exp( (Ea / k) * (1/T_ref - 1/T) )

with activation energy ``Ea ~ 1.1 eV`` for charge-trap 3D NAND.  A page
stored ``d`` days at temperature ``T`` has aged ``d * AF(T)`` *equivalent
reference days*, which plugs straight into the calibrated RBER model
(whose anchors were characterised at the reference temperature).
"""

from __future__ import annotations

from typing import Optional

import math
from dataclasses import dataclass

from ..errors import ConfigError

#: Boltzmann constant in eV/K.
BOLTZMANN_EV = 8.617333262e-5


def check_temperature(name: str, temp_c: float) -> None:
    """Reject a temperature that is NaN, infinite, or not above absolute
    zero (where the Arrhenius factor divides by zero kelvin)."""
    if not (math.isfinite(temp_c) and temp_c > -273.15):
        raise ConfigError(
            f"{name} must be finite and above -273.15 C, got {temp_c!r}")


@dataclass(frozen=True)
class ThermalConfig:
    """Arrhenius parameters."""

    activation_energy_ev: float = 1.1
    reference_temp_c: float = 40.0

    def __post_init__(self) -> None:
        if self.activation_energy_ev <= 0:
            raise ConfigError("activation energy must be positive")
        check_temperature("reference_temp_c", self.reference_temp_c)


class ThermalModel:
    """Temperature-equivalent retention scaling."""

    def __init__(self, config: Optional[ThermalConfig] = None):
        self.config = config or ThermalConfig()

    def acceleration_factor(self, temp_c: float) -> float:
        """AF(T): how much faster retention ages at ``temp_c`` than at the
        reference temperature (1.0 at the reference; >1 hotter; <1 colder).
        """
        check_temperature("temperature", temp_c)
        t = temp_c + 273.15
        t_ref = self.config.reference_temp_c + 273.15
        exponent = (self.config.activation_energy_ev / BOLTZMANN_EV) * (
            1.0 / t_ref - 1.0 / t
        )
        return math.exp(exponent)
