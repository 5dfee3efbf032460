"""Run hygiene: what must hold before a measurement, and who measured it.

Imported before numpy in every benchmark process: ``prepare()`` refuses
``REPRO_*`` overrides (the benchmark measures the defaults) and caps the
BLAS/OpenMP thread pools at the cores this process may use.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
RESULTS = HERE / "results"   # per-run files and the service spool; git-ignored

_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def cores_available() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_to_one_core() -> set[int] | None:
    """Confine this process, and every thread it starts from now on, to one of
    its cores.  Returns the cores it had (None where affinity cannot be set)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    return cores


def prepare() -> None:
    """Refuse overridden defaults, cap thread pools, make ``repro`` importable."""
    overrides = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if overrides:
        raise SystemExit(
            "benchmarks/e2e measures the defaults; unset " + ", ".join(overrides)
        )
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmarks/e2e: no repro package under {SRC}")
    cores = cores_available()
    for var in _THREAD_VARS:
        if int(os.environ.get(var) or cores + 1) > cores:
            os.environ[var] = str(cores)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # rank processes and child benchmarks import repro the same way
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(seed: int, scale: str) -> dict:
    """Who ran this: recorded in every result file."""
    import numpy
    import scipy

    from repro import kernels

    return {
        "cores_available": cores_available(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_tier": kernels.get_tier() or "auto",
        "kernel_tiers_available": list(kernels.available_tiers()),
        "git_commit": _git_commit(),
        "seed": seed,
        "scale": scale,
    }


def calibrate() -> float:
    """Seconds for a fixed numpy + pure-Python kernel (best of 5).

    Timed before and after each workload: when this number moves, the
    machine moved, not the code.
    """
    import numpy as np

    a = np.arange(250_000, dtype=np.float64) * 1e-6
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(12):
            # ufuncs and a sort, no BLAS: a threaded dot would time the wake-up
            # of an idle second core, not this one's speed
            acc += float((a * a).sum()) + float(np.sort(a[::-7]).sum())
        total = 0
        for i in range(120_000):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
        if acc < 0 or total < 0:  # keeps both results live
            raise AssertionError
    return min(times)
