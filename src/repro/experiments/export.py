"""Export experiment results as CSV for external plotting."""

from __future__ import annotations

import csv
from pathlib import Path

from ..errors import ConfigError
from .registry import ExperimentResult


def result_to_csv(result: ExperimentResult, path) -> Path:
    """Write an experiment's rows to ``path`` (one column per row key,
    headline and notes as trailing comments).  Returns the written path."""
    if not result.rows:
        raise ConfigError(f"{result.experiment_id}: nothing to export")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = result.column_names()
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in result.rows:
            writer.writerow([row.get(name, "") for name in names])
        if result.headline:
            for key, value in result.headline.items():
                fh.write(f"# headline {key} = {value}\n")
        if result.notes:
            fh.write(f"# {result.notes}\n")
    return path
