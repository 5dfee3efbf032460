"""Run hygiene: refusals that must happen before anything is measured."""

import os
import shutil
import subprocess
import sys

import host
from conftest import run_cli


def test_repro_env_overrides_are_refused():
    env = dict(os.environ, REPRO_FACTOR_CACHE="0")
    proc = run_cli("--scale", "smoke", "--workload", "table_sweep", env=env)
    assert proc.returncode != 0
    assert "REPRO_FACTOR_CACHE" in proc.stderr and not proc.stdout.strip()


def test_unknown_workload_is_refused():
    proc = run_cli("--scale", "smoke", "--workload", "nope")
    assert proc.returncode != 0 and "unknown workload" in proc.stderr


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    # the driver also runs the command where only BENCHMARK.json and the
    # benchmark's own files exist: that must be a failure, not a result
    shutil.copy(host.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(host.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "table_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_thread_pools_are_capped_at_the_cores_available():
    cores = host.cores_available()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert 1 <= int(os.environ[var]) <= cores
