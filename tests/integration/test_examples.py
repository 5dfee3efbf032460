"""Smoke-run the fast example scripts end-to-end (subprocess integration)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "21")
        assert "Schur 1" in out and "Block 2" in out
        assert "problem dependent" in out

    def test_partitioner_gallery(self):
        out = run_example("partitioner_gallery.py")
        assert "edge cut" in out
        assert "box partitioning" in out

    def test_heat_simulation(self):
        out = run_example("heat_simulation.py")
        rows = [line.split() for line in out.splitlines()]
        steps = [int(r[0]) for r in rows if len(r) == 4 and r[0].isdigit()]
        assert steps == list(range(1, 21))
        assert "total FGMRES iterations: 144" in out

    def test_vtk_export(self, tmp_path):
        target = tmp_path / "o.vtk"
        out = run_example("vtk_export.py", str(target))
        assert "converged" in out
        assert target.exists()
        assert "UNSTRUCTURED_GRID" in target.read_text()[:300]
