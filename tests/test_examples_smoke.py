"""Smoke tests: every shipped example must run end to end.

The heavyweight sweeps are exercised with reduced inputs via the library
API they wrap; the lightweight ones run as real subprocesses — exactly what
a user would type.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, timeout: float = 300.0) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_examples_directory_complete():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "read_retry_showdown.py", "odear_microscope.py",
            "timeline_anatomy.py", "tail_latency_study.py",
            "soft_sensing_rescue.py", "fleet_tour.py"} <= names


def test_quickstart_runs():
    out = _run("quickstart.py")
    assert "RiFSSD" in out and "MB/s" in out


def test_timeline_anatomy_runs():
    out = _run("timeline_anatomy.py")
    for policy in ("SSDzero", "SSDone", "RiFSSD"):
        assert policy in out
    assert "paper: 252" in out


def test_odear_microscope_runs():
    out = _run("odear_microscope.py")
    assert "RETRY" in out
    assert "rho_s" in out


def test_soft_sensing_rescue_runs():
    out = _run("soft_sensing_rescue.py")
    assert "decode FAILS" in out
    assert "data intact" in out


def test_fleet_tour_runs():
    out = _run("fleet_tour.py")
    assert "rollups bit-identical: True" in out
    assert "RiFSSD" in out and "SENC" in out


@pytest.mark.parametrize("script", ["read_retry_showdown.py",
                                    "tail_latency_study.py"])
def test_heavy_examples_importable(script):
    """The sweep examples are exercised by compiling them and checking
    their main() exists (their full runs are minutes-long by design)."""
    import ast

    tree = ast.parse((EXAMPLES / script).read_text())
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)}
    assert "main" in names
