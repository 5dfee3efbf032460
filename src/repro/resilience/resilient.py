"""Retry and fallback orchestration around :func:`repro.core.driver.solve_case`.

The contract (docs/robustness.md): a solve that fails — by raising a typed
:class:`~repro.resilience.errors.SolverFault` or by ending with a
``diverged``/``stagnated``/``breakdown`` status — is first **retried** on the
same preconditioner with breakdown remedies (a diagonal shift, tightened ILUT
dropping), then walked down a **fallback chain** of progressively simpler
preconditioners until one completes.  ``maxiter`` is an honest budget
exhaustion, not a fault, and is returned as-is.

A :class:`~repro.resilience.errors.RankDeadError` is handled before either
remedy: the dead subdomain is absorbed by its surviving neighbors
(:func:`~repro.distributed.partition_map.absorb_rank`), the world shrinks by
one rank, and the solve resumes — from the newest intact checkpoint when
``checkpoint_dir`` is in play.

Every decision is visible: ``resilience.retry``, ``resilience.fallback``
and ``resilience.comm.recover`` events land in the active trace, and the
returned :class:`ResilientOutcome` carries one :class:`AttemptRecord` per
attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cases.base import TestCase
from repro.core import stages
from repro.core.driver import PRECONDITIONER_NAMES, SolveOutcome, solve_case
from repro.resilience.errors import RankDeadError, SolverFault

#: default fallback order: strongest first, the unbreakable Jacobi last
FALLBACK_CHAIN = ("schur2", "schur1", "block2", "block1", "jacobi")

#: preconditioners whose factorizations accept the diagonal-shift remedy
_SHIFT_CAPABLE = frozenset({"schur1", "schur2", "block1", "block2", "blockk"})

#: statuses that trigger recovery (vs. being returned as the final answer)
FAILURE_STATUSES = frozenset({"diverged", "stagnated", "breakdown"})


@dataclass
class AttemptRecord:
    """One solve attempt inside a resilient run."""

    precond: str
    kind: str  # "primary" | "retry" | "fallback" | "rank-recovery"
    status: str
    iterations: int = 0
    fault: str | None = None  # message of the raised SolverFault, if any
    params: dict = field(default_factory=dict)
    error: SolverFault | None = field(default=None, repr=False)


@dataclass
class ResilientOutcome:
    """What a resilient solve produced, plus the full attempt history."""

    outcome: SolveOutcome | None
    attempts: list[AttemptRecord]

    @property
    def status(self) -> str:
        if self.outcome is not None:
            return self.outcome.status
        return self.attempts[-1].status if self.attempts else "breakdown"

    @property
    def converged(self) -> bool:
        return self.outcome is not None and self.outcome.converged

    @property
    def recovered(self) -> bool:
        """Converged after at least one failed attempt."""
        return self.converged and len(self.attempts) > 1

    @property
    def final_precond(self) -> str | None:
        return self.attempts[-1].precond if self.attempts else None


class ResilientSolver:
    """Bounded-retry + fallback-chain wrapper around ``solve_case``.

    Parameters
    ----------
    max_retries:
        Same-preconditioner retries (with remedies applied) before walking
        the fallback chain.
    fallback_chain:
        Preconditioner short names tried in order after the primary fails;
        the primary itself is skipped if it appears in the chain.
    shift_scale:
        The retry diagonal shift is ``shift_scale * mean(|diag(A)|)``.
    """

    def __init__(
        self,
        *,
        max_retries: int = 1,
        fallback_chain: tuple[str, ...] = FALLBACK_CHAIN,
        shift_scale: float = 1e-2,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        unknown = [n for n in fallback_chain if n not in PRECONDITIONER_NAMES]
        if unknown:
            raise ValueError(f"unknown fallback preconditioners {unknown}")
        self.max_retries = max_retries
        self.fallback_chain = tuple(fallback_chain)
        self.shift_scale = shift_scale

    # -- single attempt -------------------------------------------------------

    def _attempt(
        self,
        case: TestCase,
        precond: str,
        kind: str,
        params: dict,
        kwargs: dict,
        attempts: list[AttemptRecord],
    ) -> SolveOutcome | None:
        """Run one solve; record it; return the outcome unless it raised."""
        try:
            out = solve_case(case, precond=precond, precond_params=params, **kwargs)
        except SolverFault as exc:
            attempts.append(
                AttemptRecord(
                    precond=precond, kind=kind, status=exc.status,
                    fault=str(exc), params=dict(params), error=exc,
                )
            )
            return None
        attempts.append(
            AttemptRecord(
                precond=precond, kind=kind, status=out.status,
                iterations=out.iterations, params=dict(params),
            )
        )
        return out

    def _recover_ranks(
        self,
        case: TestCase,
        precond: str,
        params: dict,
        kwargs: dict,
        attempts: list[AttemptRecord],
        out: SolveOutcome | None,
    ) -> SolveOutcome | None:
        """Absorb confirmed-dead ranks and resume from the last checkpoint.

        Runs after any failed attempt whose fault was a
        :class:`RankDeadError`: survivors absorb the dead subdomain
        (``absorb_rank``), the world shrinks by one, preconditioners are
        rebuilt on the new layout by the re-attempt, and — when the solve is
        checkpointed — the iterate resumes from the newest intact snapshot
        (checkpoints store global numbering, so they survive the remap).
        The loop is bounded by the survivor count: each pass removes one
        rank, and a 1-rank world has no one left to absorb into.
        """
        while attempts and isinstance(attempts[-1].error, RankDeadError):
            nparts = int(kwargs.get("nparts", 4))
            if nparts < 2:
                break
            dead = attempts[-1].error.rank
            membership = kwargs.get("membership")
            if membership is None:
                membership = case.membership(
                    nparts,
                    seed=kwargs.get("seed", 0),
                    scheme=kwargs.get("scheme", "general"),
                )
            graph = case.coupling_graph
            with stages.absorb(graph, membership, dead, nparts) as survivors:
                kwargs["membership"] = survivors
                kwargs["nparts"] = nparts - 1
                if kwargs.get("checkpoint_dir") is not None:
                    kwargs["restore"] = True
                out = self._attempt(
                    case, precond, "rank-recovery", params, kwargs, attempts
                )
            if out is not None and out.status not in FAILURE_STATUSES:
                return out
        return out

    def _remedy_params(self, case: TestCase, params: dict) -> dict:
        """Breakdown remedies: diagonal shift + tightened ILUT dropping."""
        remedied = dict(params)
        diag = np.abs(case.matrix.diagonal())
        remedied["shift"] = self.shift_scale * float(diag.mean() if diag.size else 1.0)
        if "drop_tol" in remedied:
            remedied["drop_tol"] = remedied["drop_tol"] * 0.1
        return remedied

    # -- the resilient solve --------------------------------------------------

    def solve(
        self,
        case: TestCase,
        precond: str = "schur1",
        precond_params: dict | None = None,
        **kwargs,
    ) -> ResilientOutcome:
        """``solve_case`` with recovery; accepts its keyword arguments."""
        attempts: list[AttemptRecord] = []
        params = dict(precond_params or {})

        with obs.span("resilience.solve", precond=precond):
            out = self._attempt(case, precond, "primary", params, kwargs, attempts)
            if out is not None and out.status not in FAILURE_STATUSES:
                return ResilientOutcome(outcome=out, attempts=attempts)

            # confirmed rank failure: shrink the world before anything else —
            # retrying on a layout with a dead rank would just time out again
            out = self._recover_ranks(case, precond, params, kwargs, attempts, out)
            if out is not None and out.status not in FAILURE_STATUSES:
                return ResilientOutcome(outcome=out, attempts=attempts)

            # bounded retry on the same preconditioner, remedies applied
            if precond in _SHIFT_CAPABLE:
                retry_params = self._remedy_params(case, params)
                for k in range(self.max_retries):
                    obs.event(
                        "resilience.retry",
                        precond=precond, attempt=k + 1,
                        shift=retry_params["shift"],
                        reason=attempts[-1].fault or attempts[-1].status,
                    )
                    out = self._attempt(
                        case, precond, "retry", retry_params, kwargs, attempts
                    )
                    if out is not None and out.status not in FAILURE_STATUSES:
                        return ResilientOutcome(outcome=out, attempts=attempts)

            # walk the fallback chain; fallbacks run with default parameters
            # (the primary's tuning rarely transfers across preconditioners)
            for name in self.fallback_chain:
                if name == precond:
                    continue
                obs.event(
                    "resilience.fallback",
                    from_=attempts[-1].precond, to=name,
                    reason=attempts[-1].fault or attempts[-1].status,
                )
                out = self._attempt(case, name, "fallback", {}, kwargs, attempts)
                if out is not None and out.status not in FAILURE_STATUSES:
                    return ResilientOutcome(outcome=out, attempts=attempts)

        # chain exhausted: return the last completed outcome (if any) with the
        # honest failure classification
        return ResilientOutcome(outcome=out, attempts=attempts)
