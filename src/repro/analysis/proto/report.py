"""The ``repro.proto.v1`` report: run all three analyses, apply ergonomics.

:func:`verify_protocol` is what ``python -m repro verify-protocol`` drives.
It runs the wire-contract checker (RPR010), the state-machine model
checker (RPR011), and the lock-order analysis (RPR012) over one source
tree, then applies the same ergonomics as the linter:

* ``# repro: noqa(RPR01x) <rationale>`` on the offending line suppresses a
  finding (comment tokens only — a noqa inside a docstring is inert);
* a noqa naming a proto code that no longer fires on its line is **stale**
  and fails the run (same policy as the linter).

There is no baseline.  ``clean`` — the CLI's exit-0 condition — requires
zero unsuppressed violations, zero stale noqas, and zero parse errors.  The
coverage summaries (opcodes / frame kinds / dtypes, per-machine states,
edges and invariants, lock graph size) ship in the report so CI logs show *what* was
proven, not just that nothing failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.lint.engine import noqa_map, stale_noqa_entries
from repro.analysis.lint.rules import Violation
from repro.analysis.proto.locks import SCAN_ROOTS, check_locks
from repro.analysis.proto.machines import MACHINES, check_machines
from repro.analysis.proto.wire import check_wire

PROTO_SCHEMA = "repro.proto.v1"

#: the rule codes this pass owns; noqas for these codes are audited for
#: staleness on every verify-protocol run
PROTO_CODES = frozenset({"RPR010", "RPR011", "RPR012"})


@dataclass
class ProtoReport:
    """Everything one verify-protocol run produced."""

    root: str
    violations: list[Violation]
    suppressed: list[Violation]
    stale_noqas: list[dict[str, object]]
    wire: dict[str, object]
    machines: list[dict[str, object]]
    locks: dict[str, object]
    parse_errors: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            not self.violations
            and not self.stale_noqas
            and not self.parse_errors
        )

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.code] = out.get(v.code, 0) + 1
        return dict(sorted(out.items()))

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": PROTO_SCHEMA,
            "root": self.root,
            "counts": self.counts(),
            "violations": [v.to_dict() for v in self.violations],
            "suppressed": [v.to_dict() for v in self.suppressed],
            "stale_noqas": list(self.stale_noqas),
            "wire": self.wire,
            "machines": list(self.machines),
            "locks": self.locks,
            "parse_errors": list(self.parse_errors),
        }


def _scanned_files(root: Path) -> list[Path]:
    """Every file any of the three analyses may anchor a finding in."""
    seen: set[Path] = set()
    for sub in SCAN_ROOTS:
        base = root / sub
        if base.is_dir():
            seen.update(base.rglob("*.py"))
    for machine in MACHINES:
        path = root / machine.module
        if path.is_file():
            seen.add(path)
    return sorted(seen)


def _apply_noqa(
    root: Path, violations: list[Violation]
) -> tuple[list[Violation], list[Violation], list[dict[str, object]]]:
    """Split suppressed findings out and audit proto noqas for staleness."""
    by_path: dict[str, list[Violation]] = {}
    for v in violations:
        by_path.setdefault(v.path, []).append(v)
    kept: list[Violation] = []
    suppressed: list[Violation] = []
    stale: list[dict[str, object]] = []
    # scan the statically-known file set plus wherever findings actually
    # anchored, so a noqa is honoured even on files outside SCAN_ROOTS
    # (e.g. a wire check anchoring in the fault-taxonomy module)
    files = set(_scanned_files(root))
    files.update(Path(p) for p in by_path)
    for path in sorted(files):
        posix = path.as_posix()
        if not path.is_file():
            kept.extend(by_path.pop(posix, []))
            continue
        noqas = noqa_map(path.read_text())
        file_suppressed: list[Violation] = []
        for v in by_path.pop(posix, []):
            codes = noqas.get(v.line)
            if codes is not None and (not codes or v.code in codes):
                file_suppressed.append(v)
            else:
                kept.append(v)
        suppressed.extend(file_suppressed)
        stale.extend(stale_noqa_entries(
            posix, noqas, file_suppressed, PROTO_CODES
        ))
    for rest in by_path.values():  # findings outside the scanned set
        kept.extend(rest)
    return kept, suppressed, stale


def verify_protocol(root: str | Path | None = None) -> ProtoReport:
    """Run all three protocol analyses over the tree rooted at ``root``.

    ``root`` is the *package* root (the directory holding ``comm/``,
    ``service/``, ...); it defaults to the installed ``repro`` package so
    ``python -m repro verify-protocol`` checks the code it runs from.
    """
    if root is None:
        root = Path(__file__).resolve().parents[2]
    root = Path(root)

    violations: list[Violation] = []
    errors: list[str] = []
    wire_summary: dict[str, object] = {}
    machine_dicts: list[dict[str, object]] = []
    lock_summary: dict[str, object] = {}

    try:
        wire_violations, wire_summary = check_wire(root)
        violations.extend(wire_violations)
    except SyntaxError as exc:
        errors.append(f"wire: {exc}")
    try:
        machine_violations, checks = check_machines(root)
        violations.extend(machine_violations)
        machine_dicts = [c.to_dict() for c in checks]
    except SyntaxError as exc:
        errors.append(f"machines: {exc}")
    try:
        lock_violations, lock_summary = check_locks(root)
        violations.extend(lock_violations)
    except (SyntaxError, RecursionError) as exc:
        errors.append(f"locks: {exc}")

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    kept, suppressed, stale = _apply_noqa(root, violations)
    return ProtoReport(
        root=root.as_posix(),
        violations=kept,
        suppressed=suppressed,
        stale_noqas=stale,
        wire=wire_summary,
        machines=machine_dicts,
        locks=lock_summary,
        parse_errors=errors,
    )


def write_proto_report(path: str | Path, report: ProtoReport) -> Path:
    out = Path(path)
    out.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return out
