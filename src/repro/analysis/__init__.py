"""Static analysis and runtime correctness tooling.

The paper's preconditioner comparisons are only meaningful when every
configuration is bit-reproducible and numerically guarded.  This package is
the standing correctness gate that keeps the three classic hazards honest as
the system grows:

* :mod:`repro.analysis.lint` — a repo-specific AST linter (``python -m repro
  lint``) with stable ``RPRxxx`` rule codes, ``# repro: noqa(RPRxxx)``
  suppression and a ``repro.lint.v1`` JSON report;
* :mod:`repro.analysis.sanitize` — runtime sanitizers: an FP sanitizer that
  arms ``np.errstate`` NaN/Inf traps around the kernel tiers and raises the
  typed fault taxonomy, and a lightweight Eraser-style race detector for the
  shared setup-phase state (factor cache, tracer);
* :mod:`repro.analysis.determinism` — the determinism checker (``python -m
  repro check-determinism``): run a case twice per kernel tier and across
  serial/parallel setup, bitwise-compare iterates, residual histories and
  factors, and emit a ``repro.determinism.v1`` report;
* :mod:`repro.analysis.proto` — protocol/concurrency analysis (``python -m
  repro verify-protocol``): wire-contract coverage over the comm backends
  (RPR010), model checking of the supervisor/job/breaker transition
  tables (RPR011), and interprocedural lock-order / blocking-under-lock
  detection (RPR012), reported as ``repro.proto.v1``.

Each rule, trap and check is documented in ``docs/static-analysis.md``.

Submodules are imported lazily (PEP 562): the sanitizers are imported from
hot paths (tracer, factor cache), so this ``__init__`` must stay free of
heavy imports like the lint engine or the solve pipeline.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "LintReport",
    "Violation",
    "lint_paths",
    "lint_source",
    "DeterminismReport",
    "check_determinism",
    "ProtoReport",
    "verify_protocol",
]

_LAZY = {
    "LintReport": ("repro.analysis.lint", "LintReport"),
    "Violation": ("repro.analysis.lint", "Violation"),
    "lint_paths": ("repro.analysis.lint", "lint_paths"),
    "lint_source": ("repro.analysis.lint", "lint_source"),
    "DeterminismReport": ("repro.analysis.determinism", "DeterminismReport"),
    "check_determinism": ("repro.analysis.determinism", "check_determinism"),
    "ProtoReport": ("repro.analysis.proto", "ProtoReport"),
    "verify_protocol": ("repro.analysis.proto", "verify_protocol"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
