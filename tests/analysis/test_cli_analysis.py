"""CLI surface of the analysis tooling: lint, check-determinism, --sanitize."""

import json
from pathlib import Path

import pytest

from repro import faults
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "lint-baseline.json"

BAD_SOURCE = "def f(x):\n    return x == 0.5\n"


class TestLintCommand:
    def test_src_tree_exits_clean_with_baseline(self, capsys):
        rc = main(["lint", str(SRC), "--baseline", str(BASELINE)])
        assert rc == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_violations_exit_nonzero_and_print_location(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text(BAD_SOURCE)
        rc = main(["lint", str(mod)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RPR001" in out and "mod.py:2" in out

    def test_write_baseline_then_lint_clean(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text(BAD_SOURCE)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(mod), "--write-baseline", str(baseline)]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(["lint", str(mod), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_no_baseline_reports_everything(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(BAD_SOURCE)
        baseline = tmp_path / "baseline.json"
        main(["lint", str(mod), "--write-baseline", str(baseline)])
        assert main(["lint", str(mod), "--baseline", str(baseline),
                     "--no-baseline"]) == 1

    def test_json_report_written(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(BAD_SOURCE)
        out = tmp_path / "lint.json"
        main(["lint", str(mod), "--json", str(out)])
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.lint.v1"
        assert doc["counts"] == {"RPR001": 1}


class TestCheckDeterminismCommand:
    ARGS = ["check-determinism", "--cases", "tc1", "--size", "9",
            "--nparts", "2", "--tiers", "reference", "--maxiter", "50"]

    def test_tiny_matrix_passes(self, capsys):
        assert main(self.ARGS) == 0
        assert "all checks bitwise-identical" in capsys.readouterr().out

    def test_json_report_written(self, tmp_path):
        out = tmp_path / "det.json"
        assert main(self.ARGS + ["--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.determinism.v2"
        assert "workers" not in doc
        assert doc["identical"] is True

    def test_unknown_tier_rejected(self):
        with pytest.raises(SystemExit, match="not available"):
            main(["check-determinism", "--cases", "tc1", "--size", "9",
                  "--tiers", "cuda"])

    def test_no_cases_rejected(self):
        with pytest.raises(SystemExit, match="no cases"):
            main(["check-determinism", "--cases", ","])

    def test_workers_axis_is_gone(self, capsys):
        # the set-up thread pool was deleted: no kind, no flag, no summary text
        with pytest.raises(SystemExit, match="unknown check 'workers'.*pick from"):
            main(self.ARGS + ["--check", "workers"])
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--workers", "1"])
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
        assert main(self.ARGS + ["--check", "repeat"]) == 0
        assert "workers" not in capsys.readouterr().out


class TestSolveSanitize:
    SOLVE = ["solve", "--case", "tc1", "--size", "9", "--nparts", "2",
             "--maxiter", "100"]

    def test_clean_solve_unaffected_by_sanitizer(self, capsys):
        assert main(self.SOLVE + ["--sanitize"]) == 0
        assert "converged" in capsys.readouterr().out

    def test_injected_nan_exits_3_with_classification(self, capsys):
        plan = faults.FaultPlan(
            faults.FaultSpec(kind="nan-kernel", count=1), seed=0
        )
        with faults.inject(plan):
            rc = main(self.SOLVE + ["--sanitize", "fp"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "sanitizer trapped a fault [diverged]" in out

    def test_resilient_chain_recovers_with_sanitizer(self, capsys):
        plan = faults.FaultPlan(
            faults.FaultSpec(kind="nan-kernel", count=1), seed=0
        )
        with faults.inject(plan):
            rc = main(self.SOLVE + ["--sanitize", "fp", "--resilient"])
        assert rc == 0
        assert "converged" in capsys.readouterr().out
