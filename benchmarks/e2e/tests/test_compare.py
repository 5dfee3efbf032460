"""compare.py: bounds, exact counts, refusals."""

import copy
import json
import subprocess
import sys

import host


def _compare(*args):
    return subprocess.run(
        [sys.executable, str(host.HERE / "compare.py"), *map(str, args)],
        capture_output=True, text=True, timeout=60,
    )


def _variant(run: dict, tmp_path, name: str, **scaled) -> str:
    run = copy.deepcopy(run)
    for result in run["workloads"].values():
        for metric, factor in scaled.items():
            result["metrics"][metric] *= factor
    path = tmp_path / name
    path.write_text(json.dumps(run))
    return str(path)


def _rows(stdout: str, metric: str) -> list[str]:
    """The table rows of one metric (columns: workload, metric, ...)."""
    return [line for line in stdout.splitlines() if line.split()[1:2] == [metric]]


def test_a_run_against_itself_is_within_every_bound(smoke_untraced):
    proc = _compare(smoke_untraced["path"], "--", smoke_untraced["path"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [l for l in proc.stdout.splitlines()[2:] if l.strip()]
    assert len(rows) == 5 * 10
    assert all(row.split()[-1] == "within" for row in rows), proc.stdout


def test_worse_beyond_the_bound_fails_and_better_is_seen(smoke_untraced, tmp_path):
    base = smoke_untraced["file"]
    slower = _variant(base, tmp_path, "slower.json", quiet_op_p50_s=1.5, quiet_solves_per_s=1.5,
                      **{"core.op_p50_s": 1.12})
    proc = _compare(smoke_untraced["path"], "--", slower)
    assert proc.returncode == 1
    assert all(r.split()[-1] == "worse" for r in _rows(proc.stdout, "quiet_op_p50_s"))
    assert all(r.split()[-1] == "better" for r in _rows(proc.stdout, "quiet_solves_per_s"))
    # the all-op timings keep ISSUE 12's bound of 0.10
    assert all(r.split()[-1] == "worse" for r in _rows(proc.stdout, "core.op_p50_s"))


def test_exact_counts_compare_with_bound_zero(smoke_untraced, tmp_path):
    more = _variant(smoke_untraced["file"], tmp_path, "more.json", outer_iterations=1.01)
    proc = _compare(smoke_untraced["path"], "--", more)
    assert proc.returncode == 1
    assert all(r.split()[-1] == "worse" for r in _rows(proc.stdout, "outer_iterations"))


def test_a_moved_host_makes_timings_unresolved(smoke_untraced, tmp_path):
    moved = copy.deepcopy(smoke_untraced["file"])
    for result in moved["workloads"].values():
        result["calib_s"] = [c * 1.2 for c in result["calib_s"]]
        result["metrics"]["quiet_op_p50_s"] *= 1.5
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(moved))
    proc = _compare(smoke_untraced["path"], "--", path)
    assert all("unresolved" in r for r in _rows(proc.stdout, "quiet_op_p50_s")), proc.stdout
    assert all(r.split()[-1] == "within" for r in _rows(proc.stdout, "outer_iterations"))


def test_scales_are_never_mixed(smoke_untraced, tmp_path):
    bench = copy.deepcopy(smoke_untraced["file"])
    bench["host"]["scale"] = "bench"
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(bench))
    proc = _compare(smoke_untraced["path"], "--", path)
    assert proc.returncode != 0 and "refusing" in proc.stderr
    proc = _compare(smoke_untraced["path"], path, "--", path)
    assert proc.returncode != 0 and "refusing" in proc.stderr


def test_ten_pairs_apply_the_nine_of_ten_rule():
    import compare

    a = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.02]
    wins = [x * 0.96 for x in a]
    assert compare.verdict(a, wins, "lower", 0.10, False)[0] == "better"
    mixed = [x * (0.96 if i < 7 else 1.03) for i, x in enumerate(a)]
    assert compare.verdict(a, mixed, "lower", 0.10, False)[0] == "within"
    noisy = [1.0, 1.3, 0.8, 1.2, 0.9, 1.25, 0.85, 1.1, 0.95, 1.3]
    assert compare.verdict(noisy, noisy, "lower", 0.10, False)[0].startswith("unresolved")
    assert compare.verdict([2.0] * 3, [2.1] * 3, "higher", 0.10, False)[0] == "better"
