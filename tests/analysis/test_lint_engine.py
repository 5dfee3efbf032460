"""Engine behavior: noqa, JSON reports, and the clean-tree gate."""

import json
from pathlib import Path

from repro.analysis.lint import (
    LintReport,
    lint_paths,
    lint_source,
    write_json_report,
)
from repro.analysis.lint.engine import LINT_SCHEMA, module_of, noqa_map

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


class TestNoqa:
    def test_bare_noqa_suppresses_all_codes(self):
        violations, suppressed = lint_source(
            "x = 1.0\ny = x == 0.0  # repro: noqa\n", "mesh/foo.py"
        )
        assert not violations
        assert [v.code for v in suppressed] == ["RPR001"]

    def test_coded_noqa_suppresses_only_named_codes(self):
        violations, suppressed = lint_source(
            "y = x == 0.0  # repro: noqa(RPR002)\n", "mesh/foo.py"
        )
        assert [v.code for v in violations] == ["RPR001"]
        assert not suppressed

    def test_noqa_with_rationale_text(self):
        violations, suppressed = lint_source(
            "y = x == 0.0  # repro: noqa(RPR001) — exact-zero guard\n",
            "mesh/foo.py",
        )
        assert not violations and len(suppressed) == 1

    def test_noqa_only_covers_its_own_line(self):
        violations, _ = lint_source(
            "# repro: noqa(RPR001)\ny = x == 0.0\n", "mesh/foo.py"
        )
        assert [v.code for v in violations] == ["RPR001"]

    def test_noqa_map_tolerates_untokenizable_source(self):
        # unterminated bracket: tokenize raises TokenError, not SyntaxError;
        # the file must degrade to "no suppressions", not crash
        assert noqa_map("x = (\n") == {}
        assert noqa_map("x = (  # repro: noqa(RPR001)\n") == {}

    def test_noqa_map_tolerates_indentation_error(self):
        assert noqa_map("def f():\npass\n  extra\n") == {}


class TestJsonReport:
    def test_schema_and_fields(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("y = x == 0.5\nz = x == 0.25  # repro: noqa(RPR001)\n")
        report = lint_paths([mod])
        out = write_json_report(tmp_path / "lint.json", report)
        doc = json.loads(out.read_text())
        assert doc["schema"] == LINT_SCHEMA
        assert doc["files_checked"] == 1
        assert doc["counts"] == {"RPR001": 1}
        (v,) = doc["violations"]
        assert {"path", "line", "col", "code", "message", "snippet"} <= set(v)
        assert [s["code"] for s in doc["suppressed"]] == ["RPR001"]


class TestModuleOf:
    def test_strips_to_package_relative(self):
        assert module_of(Path("src/repro/comm/pattern.py")) == "comm/pattern.py"
        assert module_of(
            Path("/abs/repo/src/repro/kernels/band.py")
        ) == "kernels/band.py"

    def test_foreign_path_falls_back_to_name(self):
        assert module_of(Path("/tmp/elsewhere/mod.py")) == "mod.py"


class TestParseErrors:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = lint_paths([bad])
        assert report.parse_errors and not report.violations


class TestStaleNoqa:
    def test_stale_coded_noqa_fails_the_run(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1  # repro: noqa(RPR001) nothing fires here\n")
        report = lint_paths([mod])
        assert not report.violations
        assert [e["code"] for e in report.stale_noqas] == ["RPR001"]
        assert not report.clean

    def test_live_noqa_is_not_stale(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("y = x == 0.0  # repro: noqa(RPR001) guard\n")
        report = lint_paths([mod])
        assert len(report.suppressed) == 1
        assert not report.stale_noqas and report.clean

    def test_staleness_judged_per_code(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("y = x == 0.0  # repro: noqa(RPR001,RPR005) both\n")
        report = lint_paths([mod])
        # RPR001 fires and is suppressed; RPR005 (kernel/factor scope)
        # never runs here, so it is stale for this line
        assert [e["code"] for e in report.stale_noqas] == ["RPR005"]

    def test_bare_noqa_exempt_from_staleness(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1  # repro: noqa\n")
        report = lint_paths([mod])
        assert not report.stale_noqas and report.clean

    def test_foreign_pass_codes_not_judged(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1  # repro: noqa(RPR012) verify-protocol's call\n")
        report = lint_paths([mod])
        assert not report.stale_noqas and report.clean

    def test_docstring_noqa_is_inert(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            '"""Use # repro: noqa(RPR001) to suppress."""\n'
            "y = x == 0.0\n"
        )
        report = lint_paths([mod])
        assert [v.code for v in report.violations] == ["RPR001"]
        assert not report.stale_noqas

    def test_stale_noqas_in_json_report(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1  # repro: noqa(RPR001) stale\n")
        report = lint_paths([mod])
        assert report.to_dict()["stale_noqas"] == report.stale_noqas


class TestTreeIsClean:
    """The PR gate: src/repro lints clean, with nothing grandfathered."""

    def test_src_clean(self):
        report = lint_paths([SRC])
        assert isinstance(report, LintReport)
        assert not report.parse_errors
        offenders = "\n".join(v.format() for v in report.violations)
        assert report.clean, f"lint violations:\n{offenders}"

    def test_src_has_no_stale_noqas(self):
        report = lint_paths([SRC])
        assert not report.stale_noqas, (
            "noqa comments whose code no longer fires — delete them: "
            f"{report.stale_noqas}"
        )
