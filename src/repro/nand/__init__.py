"""NAND flash memory substrate.

This package models everything below the flash channel: physical addressing
(:mod:`.geometry`), the calibrated raw-bit-error-rate model (:mod:`.rber`),
per-block process variation (:mod:`.variation`), a cell-level threshold
voltage model for TLC flash (:mod:`.vth`), the data randomizer
(:mod:`.randomizer`), vendor read-retry tables (:mod:`.retry_table`), the
synthetic 160-chip characterization campaign that stands in for the paper's
real-device study (:mod:`.characterization`), and a behavioural flash-die
model (:mod:`.chip`).
"""

from .geometry import PageAddress, AddressMapper
from .rber import RberModel, PageState
from .variation import VariationModel
from .vth import TlcVthModel, PageType, TLC_GRAY_CODE
from .randomizer import Randomizer
from .retry_table import RetryTable
from .characterization import CharacterizationCampaign
from .chip import FlashDie, ReadResult, FlashCommand
from .thermal import ThermalConfig, ThermalModel
from .ispp import IsppConfig, IsppProgrammer

__all__ = [
    "PageAddress",
    "AddressMapper",
    "RberModel",
    "PageState",
    "VariationModel",
    "TlcVthModel",
    "PageType",
    "TLC_GRAY_CODE",
    "Randomizer",
    "RetryTable",
    "CharacterizationCampaign",
    "FlashDie",
    "ReadResult",
    "FlashCommand",
    "ThermalConfig",
    "ThermalModel",
    "IsppConfig",
    "IsppProgrammer",
]
