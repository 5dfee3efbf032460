"""Lint engine: file walking, rule dispatch, noqa suppression, reports.

The engine is what ``python -m repro lint`` drives: it walks the given
paths, parses each ``*.py`` once, runs every rule whose scope covers the
file and filters ``# repro: noqa(...)`` suppressions.  There is no
baseline: every violation that survives its noqa fails the run.

Suppression syntax, on the offending line::

    x == 0.0  # repro: noqa(RPR001) exact-zero guard, see docs
    something()  # repro: noqa            (suppresses every rule)
    y == 1.0  # repro: noqa(RPR001,RPR005) multiple codes

A trailing free-text rationale is encouraged — the lint-clean test keeps
``src/repro`` at zero unsuppressed violations, so every noqa
is a reviewed, documented decision.

Noqa comments are found by tokenizing, not by regex over raw lines, so a
noqa example inside a docstring (like the ones above) is inert.  A noqa
that names a code which no longer fires on its line is **stale** and fails
the run — suppressions must be deleted when the violation they excused is
fixed.  Staleness is judged per code and only against the codes active in
the current run (a ``noqa(RPR012)`` is the verify-protocol pass's to
audit, not the linter's); a bare ``# repro: noqa`` is exempt.
"""

from __future__ import annotations

import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.analysis.lint.rules import RULES, FileContext, Rule, Violation

LINT_SCHEMA = "repro.lint.v1"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\(\s*(?P<codes>[A-Z0-9,\s]+)\s*\))?",
)

#: the package root marker used to derive rule-scope module paths
_PKG_MARKER = ("src", "repro")


@dataclass
class LintReport:
    """Everything one lint run produced."""

    files_checked: int
    violations: list[Violation]
    suppressed: list[Violation]
    parse_errors: list[str] = field(default_factory=list)
    #: noqa comments naming an active code that no longer fires on their line
    stale_noqas: list[dict] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            not self.violations
            and not self.parse_errors
            and not self.stale_noqas
        )

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.code] = out.get(v.code, 0) + 1
        return dict(sorted(out.items()))

    def to_dict(self) -> dict:
        return {
            "schema": LINT_SCHEMA,
            "files_checked": self.files_checked,
            "counts": self.counts(),
            "violations": [v.to_dict() for v in self.violations],
            "suppressed": [v.to_dict() for v in self.suppressed],
            "stale_noqas": list(self.stale_noqas),
            "parse_errors": list(self.parse_errors),
        }


def noqa_map(source: str) -> dict[int, set[str]]:
    """Line → codes suppressed there; empty set means 'all codes'.

    Only real COMMENT tokens count — the regex never sees string bodies,
    so noqa examples inside docstrings (including this module's own) are
    inert.  On tokenize failure the file simply has no suppressions; the
    parse error is reported through the normal path.
    """
    out: dict[int, set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = _NOQA_RE.search(tok.string)
        if m is None:
            continue
        codes = m.group("codes")
        if codes is None:
            out[tok.start[0]] = set()
        else:
            out[tok.start[0]] = {
                c.strip() for c in codes.split(",") if c.strip()
            }
    return out


def _split_suppressed(
    noqas: Mapping[int, set[str]], violations: list[Violation]
) -> tuple[list[Violation], list[Violation]]:
    kept: list[Violation] = []
    suppressed: list[Violation] = []
    for v in violations:
        codes = noqas.get(v.line)
        if codes is not None and (not codes or v.code in codes):
            suppressed.append(v)
        else:
            kept.append(v)
    return kept, suppressed


def stale_noqa_entries(
    path: str,
    noqas: Mapping[int, set[str]],
    suppressed: list[Violation],
    active_codes: Iterable[str],
) -> list[dict]:
    """Noqas naming an active code that suppressed nothing on their line.

    Judged per code: ``noqa(RPR001,RPR005)`` with only an RPR001 hit on
    the line is stale for RPR005.  Codes outside ``active_codes`` (owned
    by a different pass, or a rule subset run) are never judged, and a
    bare ``# repro: noqa`` is exempt — it states intent for every pass.
    """
    active = set(active_codes)
    hit: dict[int, set[str]] = {}
    for v in suppressed:
        hit.setdefault(v.line, set()).add(v.code)
    stale: list[dict] = []
    for line, codes in sorted(noqas.items()):
        if not codes:
            continue
        for code in sorted(codes & active):
            if code not in hit.get(line, set()):
                stale.append({"path": path, "line": line, "code": code})
    return stale


def module_of(path: Path) -> str:
    """Rule-scope module path: the part of ``path`` under ``src/repro``."""
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, 0, -1):
        if tuple(parts[i - 1: i + 1]) == _PKG_MARKER:
            return "/".join(parts[i + 1:])
    return path.name


def lint_source(
    source: str,
    module: str,
    path: str = "<string>",
    rules: Iterable[Rule] = RULES,
) -> tuple[list[Violation], list[Violation]]:
    """Lint one source string; returns ``(violations, suppressed)``.

    ``module`` positions the snippet for rule scoping, e.g.
    ``"comm/pattern.py"`` — the unit tests use this to exercise scoped
    rules on fixture snippets.
    """
    kept, suppressed, _stale = lint_source_full(
        source, module, path=path, rules=rules
    )
    return kept, suppressed


def lint_source_full(
    source: str,
    module: str,
    path: str = "<string>",
    rules: Iterable[Rule] = RULES,
) -> tuple[list[Violation], list[Violation], list[dict]]:
    """Like :func:`lint_source` plus the stale-noqa entries for the file."""
    rules = tuple(rules)
    ctx = FileContext(path=path, module=module, source=source)
    found: list[Violation] = []
    for rule in rules:
        if ctx.in_scope(rule.scope):
            found.extend(rule.check(ctx))
    found.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    noqas = noqa_map(source)
    kept, suppressed = _split_suppressed(noqas, found)
    stale = stale_noqa_entries(
        path, noqas, suppressed, (r.code for r in rules)
    )
    return kept, suppressed, stale


def iter_python_files(paths: Iterable[str | Path]) -> Iterable[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def lint_paths(
    paths: Iterable[str | Path],
    rules: Iterable[Rule] = RULES,
) -> LintReport:
    """Lint every ``*.py`` under ``paths``."""
    rules = tuple(rules)
    violations: list[Violation] = []
    suppressed: list[Violation] = []
    stale_noqas: list[dict] = []
    errors: list[str] = []
    n_files = 0
    for path in iter_python_files(paths):
        n_files += 1
        try:
            source = path.read_text()
            kept, supp, stale = lint_source_full(
                source, module_of(path), path=path.as_posix(), rules=rules
            )
        except (SyntaxError, UnicodeDecodeError) as exc:
            errors.append(f"{path.as_posix()}: {exc}")
            continue
        violations.extend(kept)
        suppressed.extend(supp)
        stale_noqas.extend(stale)

    return LintReport(
        files_checked=n_files,
        violations=violations,
        suppressed=suppressed,
        parse_errors=errors,
        stale_noqas=stale_noqas,
    )


def write_json_report(path: str | Path, report: LintReport) -> Path:
    out = Path(path)
    out.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return out
