"""A solve loads only what it uses.

``scipy.spatial`` (Delaunay, for Test Case 3's mesh) and ``scipy.fft`` (the
sine transforms of Schwarz's FFT subdomain solve) cost every process that
imports them, and no Test Case 1 solve needs either, so they are imported
where they are called.  A fresh interpreter shows whether an import at
module level has crept back.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

_PROBE = """
import sys
import repro
from repro import CASE_BUILDERS
from repro.core.driver import solve_case
out = solve_case(CASE_BUILDERS["tc1"](17), precond="schur1", nparts=4)
assert out.converged
print(sorted(m for m in ("scipy.spatial", "scipy.fft") if m in sys.modules))
"""


def test_tc1_solve_loads_neither_spatial_nor_fft():
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
