"""Markdown report generation: render experiment results as an
EXPERIMENTS-style document with measured values next to the paper's
claims."""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import ConfigError
from .registry import ExperimentResult

#: What the paper quotes per artefact (surfaced next to measurements).
PAPER_CLAIMS = {
    "fig3": "P_fail > 1e-1 and 20 iterations at RBER 0.0085",
    "fig4": "retries may start after 17/14/10/8 days at 0/0.2K/0.5K/1K P/E",
    "fig6": "SSDone loses 19.4% / 34.9% / 50.4% at 0K/1K/2K",
    "fig7": "timelines: 252 us (SSDzero), 418 us (SSDone), 292 us (RiF)",
    "fig10": "syndrome weight monotone in RBER; rho_s = 3830 at 0.0085",
    "fig11": "99.1% accuracy above capability (50.3% at capability)",
    "fig12": "chunk RBER spread <= 4.5% @4KiB, <= 13.5% @1KiB",
    "fig14": "98.7% accuracy with chunking + pruning",
    "fig17": "RiF vs SENC geomean +23.8/47.4/72.1%; <=1.8% below SSDzero",
    "fig18": "RiF UNCOR 1.8% vs RPSSD 19.9% (Ali121@2K)",
    "fig19": "p99.99 latency cut 91.8% vs SENC at 2K",
    "table1": "2-TiB, 8x4x4, tR 40us, tDMA 13us, tPRED 2.5us",
    "table2": "read/cold-read ratios of the eight traces",
    "overhead": "0.012 mm2, 1.28 mW, 3.2 nJ/prediction vs 907 nJ/transfer",
    "chaos": "robustness extension (no paper artefact): graceful "
             "degradation under injected faults",
    "frontier": "adaptive-policy extension (no paper artefact): "
                "history-driven retry vs. the static schemes across "
                "retention ages",
}


def render_markdown(results: Sequence[ExperimentResult],
                    durations: Optional[dict] = None) -> str:
    """Render results as a standalone markdown report."""
    if not results:
        raise ConfigError("nothing to report")
    lines = [
        "# Reproduction report",
        "",
        "Generated by `repro.experiments.report`.",
        "",
    ]
    for result in results:
        lines.append(f"## {result.experiment_id} — {result.title}")
        claim = PAPER_CLAIMS.get(result.experiment_id)
        if claim:
            lines.append(f"*Paper:* {claim}")
        if result.headline:
            lines.append("")
            lines.append("**Measured:**")
            for key, value in result.headline.items():
                lines.append(f"- `{key}` = {ExperimentResult._fmt(value)}")
        lines.append("")
        names = result.column_names()
        lines.append("| " + " | ".join(names) + " |")
        lines.append("|" + "---|" * len(names))
        for row in result.rows:
            lines.append(
                "| " + " | ".join(
                    ExperimentResult._fmt(row.get(n, "")) for n in names
                ) + " |"
            )
        if result.notes:
            lines.append("")
            lines.append(f"*{result.notes}*")
        if durations and result.experiment_id in durations:
            lines.append(f"\n*({durations[result.experiment_id]:.1f}s)*")
        lines.append("")
    return "\n".join(lines)
