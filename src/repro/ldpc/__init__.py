"""Quasi-cyclic LDPC codec and its reliability-curve calibration.

The paper's ECC engine is a 4-KiB QC-LDPC whose parity-check matrix is a
4x36 block matrix of 1024x1024 circulants (footnote 6) with a correction
capability of RBER 0.0085 (Table I, Fig. 3).  This package provides:

* :mod:`.qc_matrix` — code construction (array-code circulant shifts, girth-6
  by design at the shipped sizes),
* :mod:`.encoder` — systematic GF(2) encoder derived by bit-packed Gaussian
  elimination,
* :mod:`.decoder` — the normalized min-sum decoder with iteration
  accounting,
* :mod:`.syndrome` — full/pruned syndrome computation and the codeword
  rearrangement that turns every circulant into an identity (SecV-B),
* :mod:`.capability` — Monte-Carlo failure probability / iteration curves
  (Fig. 3) and parametric fits used by the SSD simulator,
* :mod:`.analytic` — closed-form syndrome-weight statistics (Fig. 10),
* :mod:`.latency` — the tECC(RBER) in [1, 20] us latency model of Table I.
"""

from .qc_matrix import QcLdpcCode
from .encoder import SystematicEncoder
from .decoder import DecodeResult, MinSumDecoder
from .syndrome import (
    syndrome,
    syndrome_weight,
    pruned_syndrome_weight,
    rearrange_codeword,
    restore_codeword,
    pruned_syndrome_weight_rearranged,
)
from .analytic import SyndromeStatistics
from .capability import CapabilityCurve, CapabilityPoint, fit_capability_curve, measure_capability
from .latency import EccLatencyModel
from .soft import SoftReadDecoder, combine_reads_llr

__all__ = [
    "QcLdpcCode",
    "SystematicEncoder",
    "DecodeResult",
    "MinSumDecoder",
    "syndrome",
    "syndrome_weight",
    "pruned_syndrome_weight",
    "rearrange_codeword",
    "restore_codeword",
    "pruned_syndrome_weight_rearranged",
    "SyndromeStatistics",
    "CapabilityCurve",
    "CapabilityPoint",
    "fit_capability_curve",
    "measure_capability",
    "EccLatencyModel",
    "SoftReadDecoder",
    "combine_reads_llr",
]
