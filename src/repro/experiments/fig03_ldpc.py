"""Fig. 3 — error-correction capability of the 4-KiB QC-LDPC.

Monte-Carlo decoding-failure probability and average iteration count over
an RBER grid, plus the extracted correction capability (the paper calls
RBER 0.0085 the point where failure probability exceeds 1e-1 and the
iteration count saturates at 20).
"""

from __future__ import annotations

from ..config import LdpcCodeConfig
from ..errors import ConfigError
from ..ldpc import QcLdpcCode, fit_capability_curve, measure_capability
from .registry import ExperimentResult, register

_SCALES = {
    # (circulant size, trials per point)
    "small": (67, 60),
    "full": (128, 300),
}

RBER_GRID = [0.003, 0.004, 0.005, 0.006, 0.007, 0.008, 0.009, 0.010, 0.012]


@register("fig3", "LDPC decoding-failure probability and iterations vs RBER")
def run(scale: str = "small", seed: int = 1234) -> ExperimentResult:
    if scale not in _SCALES:
        raise ConfigError(f"unknown scale {scale!r}")
    t, trials = _SCALES[scale]
    code = QcLdpcCode(LdpcCodeConfig(circulant_size=t))
    points = measure_capability(code, RBER_GRID, trials=trials, seed=seed)
    curve = fit_capability_curve(points)
    rows = [
        {
            "rber": p.rber,
            "p_fail": p.failure_probability,
            "avg_iterations": p.avg_iterations,
        }
        for p in points
    ]
    return ExperimentResult(
        experiment_id="fig3",
        title="QC-LDPC capability (paper: failure > 0.1 and 20 iters at RBER 0.0085)",
        rows=rows,
        headline={
            "capability_rber_at_10pct_failure": curve.capability(0.1),
            "fit_midpoint": curve.midpoint,
            "fit_slope": curve.slope,
        },
        notes=f"code={code!r}, decoder=min-sum, trials/point={trials}",
    )
