"""Self-tests of the benchmark harness (not part of the repo's tier-1 suite).

    python -m pytest benchmarks/e2e/tests -q

Everything runs at ``--scale smoke``; the two smoke runs of ``run.py`` are
shared by the whole session.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(E2E))

import host  # noqa: E402

host.prepare()


def run_cli(*args, cwd=host.REPO, env=None):
    return subprocess.run(
        [sys.executable, str(E2E / "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def _smoke(tmp_path_factory, trace: int) -> dict:
    out = tmp_path_factory.mktemp("e2e") / f"smoke-trace{trace}.json"
    proc = run_cli("--scale", "smoke", "--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return {
        "stdout": proc.stdout,
        "line": json.loads(proc.stdout.strip().splitlines()[-1]),
        "file": json.loads(out.read_text()),
        "path": out,
    }


@pytest.fixture(scope="session")
def smoke_untraced(tmp_path_factory):
    return _smoke(tmp_path_factory, 0)


@pytest.fixture(scope="session")
def smoke_traced(tmp_path_factory):
    return _smoke(tmp_path_factory, 1)
