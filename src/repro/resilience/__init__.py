"""Solver resilience: failure taxonomy, detection guards, retry/fallback.

The contract (``docs/robustness.md``): every solve terminates with a
classified outcome — a :data:`repro.krylov.monitors.STATUSES` status or a
typed :class:`SolverFault` — and :class:`ResilientSolver` turns recoverable
failures into recoveries via a bounded retry (diagonal shift, relaxed ILUT
thresholds) followed by the documented preconditioner fallback chain,
emitting ``resilience.retry`` / ``resilience.fallback`` trace events.

``repro.resilience.errors`` is import-light (the factorizations raise its
exceptions); :class:`ResilientSolver` pulls in the whole driver stack, so it
is re-exported lazily.
"""

from __future__ import annotations

from repro.resilience.errors import (
    CommFault,
    FactorizationBreakdown,
    InnerSolveDivergence,
    MessageCorruption,
    MessageTimeout,
    NumericalFault,
    RankDeadError,
    SolverFault,
    TransientStepFailure,
)

__all__ = [
    "SolverFault",
    "FactorizationBreakdown",
    "NumericalFault",
    "InnerSolveDivergence",
    "CommFault",
    "MessageTimeout",
    "MessageCorruption",
    "RankDeadError",
    "TransientStepFailure",
    "ResilientSolver",
    "ResilientOutcome",
    "AttemptRecord",
    "FALLBACK_CHAIN",
    "FAILURE_STATUSES",
]

_LAZY = ("ResilientSolver", "ResilientOutcome", "AttemptRecord", "FALLBACK_CHAIN",
         "FAILURE_STATUSES")


def __getattr__(name: str):
    # ResilientSolver imports the driver (and with it every preconditioner);
    # importing it eagerly here would cycle through repro.factor -> errors
    if name in _LAZY:
        from repro.resilience import resilient

        return getattr(resilient, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
