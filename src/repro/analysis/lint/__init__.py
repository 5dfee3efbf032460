"""Custom AST linter with repo-specific numerics-correctness rules.

``python -m repro lint src/`` is the CLI; :func:`lint_paths` /
:func:`lint_source` are the library entry points.  Rules, codes and the
suppression syntax are documented in ``docs/static-analysis.md``.
"""

from repro.analysis.lint.engine import (
    LINT_SCHEMA,
    LintReport,
    lint_paths,
    lint_source,
    lint_source_full,
    module_of,
    noqa_map,
    stale_noqa_entries,
    write_json_report,
)
from repro.analysis.lint.rules import RULES, RULES_BY_CODE, Rule, Violation

__all__ = [
    "RULES",
    "RULES_BY_CODE",
    "Rule",
    "Violation",
    "LintReport",
    "lint_paths",
    "lint_source",
    "lint_source_full",
    "module_of",
    "noqa_map",
    "stale_noqa_entries",
    "write_json_report",
    "LINT_SCHEMA",
]
