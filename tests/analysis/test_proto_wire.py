"""RPR010 wire-contract checker: fixtures fire, src/repro is covered+clean."""

from pathlib import Path

from repro.analysis.proto.wire import check_wire

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "proto"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _messages(violations):
    return [v.message for v in violations]


class TestBadTree:
    def test_every_contract_violation_fires(self):
        violations, _ = check_wire(FIXTURES / "wire_bad")
        msgs = "\n".join(_messages(violations))
        assert all(v.code == "RPR010" for v in violations)
        # table self-consistency
        assert "SHADOW reuses wire value 4" in msgs
        assert "GHOST has no KIND_NAMES entry" in msgs
        # opcode closed-world
        assert "OP_ORPHAN has no OP_NAMES entry" in msgs
        assert "OP_ORPHAN has no _HANDLERS entry" in msgs
        assert "OP_WORK has no driver-side encoder" in msgs
        # error-taxonomy mapping
        assert "raises RogueError" in msgs
        assert "never routes worker errors" in msgs
        # frame-kind usage
        assert "constructs frame kind BOGUS" in msgs
        assert "constructs frame kind PHANTOM" in msgs  # via deliver_round
        assert "RESULT is constructed but never matched" in msgs
        assert "GHOST is declared in FRAME_KINDS but never constructed" in msgs
        # dtype closed table
        assert "ships dtype 'float16'" in msgs

    def test_violations_are_anchored(self):
        violations, _ = check_wire(FIXTURES / "wire_bad")
        rogue = [v for v in violations if "RogueError" in v.message]
        assert len(rogue) == 1 and rogue[0].line > 1
        assert rogue[0].path.endswith("comm/backends/worker.py")


class TestCleanTrees:
    def test_minimal_consistent_tree_is_clean(self):
        violations, summary = check_wire(FIXTURES / "wire_ok")
        assert violations == []
        assert summary["opcodes"]["OP_PING"]["encoded"]
        kinds = summary["frame_kinds"]
        assert all(k["constructed"] and k["accepted"] for k in kinds.values())
        assert summary["dtypes"] == {"<f8": True}

    def test_src_repro_is_clean_with_full_coverage(self):
        violations, summary = check_wire(SRC)
        assert _messages(violations) == []
        # the real protocol: 6 opcodes, 5 frame kinds, 4 dtypes — every
        # opcode encoded driver-side, every kind constructed and accepted
        assert set(summary["opcodes"]) == {
            "OP_LOAD_MATRIX", "OP_LOAD_FACTOR", "OP_FACTOR", "OP_MATVEC", "OP_APPLY",
            "OP_RUN_CHUNK",
        }
        assert all(op["encoded"] for op in summary["opcodes"].values())
        assert len(summary["frame_kinds"]) == 5
        assert all(
            k["constructed"] and k["accepted"]
            for k in summary["frame_kinds"].values()
        )
        assert len(summary["dtypes"]) == 4

    def test_missing_tree_yields_empty_report(self, tmp_path):
        violations, summary = check_wire(tmp_path)
        assert violations == [] and summary["opcodes"] == {}
