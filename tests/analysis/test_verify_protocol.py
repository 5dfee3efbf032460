"""verify_protocol report assembly, noqa/baseline ergonomics, and the CLI."""

import json
from pathlib import Path

from repro.analysis.lint.baseline import write_baseline
from repro.analysis.lint.rules import Violation
from repro.analysis.proto.report import (
    PROTO_SCHEMA,
    _apply_noqa,
    verify_protocol,
    write_proto_report,
)
from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "proto"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestReport:
    def test_src_repro_is_clean(self):
        report = verify_protocol(root=SRC)
        assert [v.message for v in report.violations] == []
        assert report.stale_noqas == [] and report.parse_errors == []
        assert report.clean

    def test_default_root_is_the_installed_package(self):
        report = verify_protocol()
        assert report.root.endswith("repro")
        assert report.clean

    def test_schema_and_sections(self, tmp_path):
        report = verify_protocol(root=SRC)
        out = write_proto_report(tmp_path / "proto.json", report)
        doc = json.loads(out.read_text())
        assert doc["schema"] == PROTO_SCHEMA
        assert set(doc) >= {
            "counts", "violations", "suppressed", "stale_noqas",
            "wire", "machines", "locks", "parse_errors",
        }
        assert len(doc["machines"]) == 3
        assert all(m["violations"] == [] for m in doc["machines"])
        assert doc["wire"]["opcodes"] and doc["wire"]["frame_kinds"]

    def test_bad_tree_counts_by_code(self):
        report = verify_protocol(root=FIXTURES / "wire_bad")
        assert not report.clean
        assert set(report.counts()) == {"RPR010"}

    def test_noqa_suppression_and_staleness(self):
        report = verify_protocol(root=FIXTURES / "noqa_tree")
        assert report.violations == []
        assert len(report.suppressed) == 2
        assert [e["code"] for e in report.stale_noqas] == ["RPR010"]
        assert not report.clean  # the stale noqa alone fails the run

    def test_noqa_honoured_outside_scan_roots(self, tmp_path):
        # a finding anchored outside SCAN_ROOTS (e.g. in the fault-taxonomy
        # module the wire checker reads) must still see its noqa
        other = tmp_path / "resilience"
        other.mkdir()
        mod = other / "errors.py"
        mod.write_text("X = 1  # repro: noqa(RPR010) anchored here\n")
        v = Violation(
            path=mod.as_posix(), line=1, col=0, code="RPR010",
            message="synthetic", snippet="X = 1",
        )
        gone = Violation(
            path=(tmp_path / "gone.py").as_posix(), line=1, col=0,
            code="RPR010", message="synthetic", snippet="",
        )
        kept, suppressed, stale = _apply_noqa(tmp_path, [v, gone])
        assert kept == [gone]
        assert suppressed == [v]
        assert stale == []

    def test_baseline_grandfathers_findings(self, tmp_path):
        dirty = verify_protocol(root=FIXTURES / "wire_bad")
        assert dirty.violations
        baseline = tmp_path / "proto-baseline.json"
        write_baseline(baseline, dirty.violations)
        rebased = verify_protocol(
            root=FIXTURES / "wire_bad", baseline_path=baseline
        )
        assert rebased.new_violations == [] and rebased.clean


class TestCli:
    def test_exit_zero_on_clean_tree(self, capsys):
        assert main(["verify-protocol", str(SRC)]) == 0
        out = capsys.readouterr().out
        assert "wire: 5 opcode(s), 9 frame kind(s), 4 dtype(s)" in out
        assert "machine rank-supervisor" in out
        assert "0 finding(s)" in out

    def test_exit_nonzero_on_findings(self, capsys):
        assert main(["verify-protocol", str(FIXTURES / "wire_bad")]) == 1
        out = capsys.readouterr().out
        assert "RPR010" in out

    def test_json_report_written(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["verify-protocol", str(SRC), "--json", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == PROTO_SCHEMA

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        baseline = tmp_path / "pb.json"
        root = str(FIXTURES / "wire_bad")
        assert main(["verify-protocol", root,
                     "--write-baseline", str(baseline)]) == 0
        assert main(["verify-protocol", root,
                     "--baseline", str(baseline)]) == 0
        assert main(["verify-protocol", root, "--no-baseline"]) == 1
