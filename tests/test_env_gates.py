"""The ``REPRO_*`` environment gates are a closed set.

Every gate multiplies the configurations the determinism matrix and CI must
cover, so adding one has to show up as a failing test, not as a grep nobody
runs.  docs/performance.md's environment table lists the same four.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "repro"

GATES = {"SANITIZE", "KERNEL_TIER", "COMM_BACKEND", "FACTOR_CACHE"}


def _sources() -> dict[Path, str]:
    return {p: p.read_text() for p in sorted(SRC.rglob("*.py"))}


def test_env_gates_are_exactly_the_documented_four():
    found = {
        name
        for text in _sources().values()
        for name in re.findall(r"REPRO_([A-Z_]+)", text)
    }
    assert found == GATES


def test_no_numba_import_remains():
    pattern = re.compile(r"^\s*(import|from)\s+numba\b", re.MULTILINE)
    offenders = [str(p) for p, text in _sources().items() if pattern.search(text)]
    assert offenders == []
