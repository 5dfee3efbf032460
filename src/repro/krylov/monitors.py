"""Convergence monitoring (Diffpack-style convergence monitors).

The paper's criterion: the 2-norm of the residual reduced by 1e-6 relative to
its initial value.  :class:`ConvergenceMonitor` owns that test, the residual
history, and the divergence detector of the resilience layer;
:class:`KrylovResult` is what every solver returns.  A solve no longer ends
in a bare converged/not-converged bool: ``KrylovResult.status`` is one of
:data:`STATUSES`, so callers (and the resilient driver) can tell an honest
iteration-budget exhaustion from a numerical explosion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import obs

#: the classified outcomes of a Krylov solve (docs/robustness.md)
STATUSES = ("converged", "maxiter", "stagnated", "diverged", "breakdown")

#: a residual grown past ``DIVTOL`` times the initial one counts as diverged
DIVTOL = 1e10


@dataclass
class KrylovResult:
    """Outcome of a Krylov solve.

    ``status`` classifies the termination (one of :data:`STATUSES`);
    ``converged`` is kept as a derived property for the common boolean
    question.
    """

    x: np.ndarray
    iterations: int
    status: str
    residuals: list[float]

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(
                f"unknown status {self.status!r}; pick from {STATUSES}"
            )

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")

    @property
    def reduction(self) -> float:
        """Final/initial residual ratio ‖r_k‖/‖r_0‖.

        Edge-case semantics (documented, tested):

        * empty history → ``nan`` — the solver recorded nothing, so no
          reduction claim can be made (*not* 0.0, which would read as a
          perfect reduction);
        * zero initial residual → ``0.0`` — the system was solved exactly
          before the first iteration, the ratio is taken as its limit;
        * single-entry history → ``1.0`` — only r_0 was recorded (e.g. the
          initial guess already met the tolerance), i.e. genuinely "no
          reduction performed", not a solver stall.
        """
        if not self.residuals:
            return float("nan")
        r0 = self.residuals[0]
        if r0 <= 0.0:  # residual norms are non-negative; <= is the exact guard
            return 0.0
        return self.residuals[-1] / r0


@dataclass
class ConvergenceMonitor:
    """Relative-reduction convergence test with history recording.

    Besides the convergence test, the monitor carries the resilience layer's
    divergence detector: the residual became non-finite, or grew past
    ``DIVTOL`` times the initial residual.
    """

    rtol: float = 1e-6
    atol: float = 0.0
    residuals: list[float] = field(default_factory=list)
    _threshold: float | None = None

    def start(self, r0_norm: float) -> bool:
        """Record the initial residual; returns True if already converged."""
        self.residuals = [r0_norm]
        self._threshold = max(self.rtol * r0_norm, self.atol)
        obs.event("krylov.start", residual=float(r0_norm))
        return r0_norm <= self.atol

    @property
    def threshold(self) -> float:
        if self._threshold is None:
            raise RuntimeError("monitor not started")
        return self._threshold

    def check(self, r_norm: float) -> bool:
        """Record a residual norm; returns True on convergence.

        Each check emits one ``krylov.iteration`` event on the innermost open
        span (free when tracing is disabled), so traces carry the convergence
        trajectory of outer *and* inner solves in context.
        """
        if self._threshold is None:
            raise RuntimeError("monitor not started")
        self.residuals.append(float(r_norm))
        obs.event(
            "krylov.iteration",
            k=len(self.residuals) - 1,
            residual=float(r_norm),
        )
        return r_norm <= self._threshold

    def diverged(self) -> bool:
        """True when the last recorded residual is non-finite or exploded."""
        if not self.residuals:
            return False
        last = self.residuals[-1]
        if not math.isfinite(last):
            return True
        r0 = self.residuals[0]
        return math.isfinite(r0) and last > DIVTOL * max(r0, 1e-300)
