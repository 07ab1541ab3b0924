"""Unit constants and conversion helpers shared across the library.

All simulator time is kept in **microseconds** (float), all sizes in
**bytes** (int), and all bandwidths in **bytes per microsecond** unless a
function name says otherwise.  Keeping a single canonical unit per quantity
avoids the classic simulator bug of mixing ns/us/ms mid-pipeline.
"""

from __future__ import annotations

# --- sizes -----------------------------------------------------------------
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

# --- time (canonical unit: microsecond) -------------------------------------
US = 1.0
MS = 1_000.0
SEC = 1_000_000.0

#: Microseconds in one day — retention ages are tracked in days in the NAND
#: reliability model but simulation time advances in microseconds.
US_PER_DAY = 24 * 3600 * SEC

# --- bandwidth helpers -------------------------------------------------------


def gb_per_s_to_bytes_per_us(gb_per_s: float) -> float:
    """Convert a GB/s figure (decimal gigabytes, as used in datasheets and in
    the paper) to bytes per microsecond."""
    return gb_per_s * 1e9 / 1e6


def bytes_per_us_to_mb_per_s(bytes_per_us: float) -> float:
    """Convert bytes/us to MB/s (decimal megabytes, the unit of the paper's
    bandwidth plots)."""
    return bytes_per_us * 1e6 / 1e6
