"""``repro serve`` as a process: result lines, SIGTERM drain, resume flag."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.job import TERMINAL_STATUSES


def serve_cmd(*extra):
    return [sys.executable, "-m", "repro", "serve", *extra]


def env():
    e = dict(os.environ)
    e["PYTHONPATH"] = "src"
    return e


REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run_serve(*extra, timeout=120):
    return subprocess.run(
        serve_cmd(*extra), capture_output=True, text=True,
        timeout=timeout, env=env(), cwd=REPO,
    )


def parse_results(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


class TestServeBatch:
    def test_gen_jobs_all_reach_terminal_status_exit_zero(self, tmp_path):
        proc = run_serve("--gen", "3", "--size", "13", "--nparts", "2",
                         "--workers", "2", "--spool", str(tmp_path / "spool"))
        assert proc.returncode == 0, proc.stderr
        results = parse_results(proc.stdout)
        assert len(results) == 3
        for r in results:
            assert r["status"] in TERMINAL_STATUSES
        assert all(r["status"] == "converged" for r in results)
        assert "served 3 job(s)" in proc.stderr
        (workers,) = [line for line in proc.stderr.splitlines()
                      if line.startswith("workers: ")]
        assert workers.count(" pid ") == 2 and " pid None" not in workers

    def test_jobs_file_and_out_file(self, tmp_path):
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(json.dumps(
            {"tenant": "t1", "case": "tc1", "size": 13, "nparts": 2}
        ) + "\n")
        out = tmp_path / "results.jsonl"
        proc = run_serve("--jobs", str(jobs), "--out", str(out),
                         "--spool", str(tmp_path / "spool"))
        assert proc.returncode == 0, proc.stderr
        (result,) = parse_results(out.read_text())
        assert result["tenant"] == "t1"
        assert result["status"] == "converged"

    def test_bad_deadline_jobs_end_typed_not_crashed(self, tmp_path):
        # a 1 ms deadline can't fit any solve: shed/failed, still exit 0
        proc = run_serve("--gen", "2", "--size", "13", "--nparts", "2",
                         "--deadline", "0.001",
                         "--spool", str(tmp_path / "spool"))
        assert proc.returncode == 0, proc.stderr
        results = parse_results(proc.stdout)
        assert len(results) == 2
        for r in results:
            assert r["status"] in ("shed", "failed")


class TestServeSignals:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_signal_drains_gracefully_exit_zero(self, tmp_path, signum):
        spool = tmp_path / "spool"
        proc = subprocess.Popen(
            serve_cmd("--gen", "1", "--size", "13", "--nparts", "2",
                      "--linger", "60", "--spool", str(spool)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env(), cwd=REPO,
        )
        try:
            # wait for the job's checkpoint dir to appear, a sign the
            # solve has been dispatched (the service lingers afterwards)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and proc.poll() is None:
                if spool.is_dir() and any(p.is_dir() for p in spool.iterdir()):
                    break
                time.sleep(0.1)
            time.sleep(2.0)  # generous: let the solve complete into linger
            proc.send_signal(signum)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0, stderr
        assert "drained with" in stderr
        manifest = json.loads((spool / "drain.json").read_text())
        assert manifest["schema"] == "repro.service.drain.v1"
        results = parse_results(stdout)
        assert results and all(
            r["status"] in TERMINAL_STATUSES for r in results
        )
