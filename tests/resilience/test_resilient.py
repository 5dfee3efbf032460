"""The retry/fallback chain recovers (or honestly classifies) each fault class."""

import numpy as np
import pytest

from repro import faults, obs
from repro.cases.poisson2d import poisson2d_case
from repro.core.driver import PRECONDITIONER_NAMES
from repro.resilience import FALLBACK_CHAIN, ResilientSolver, resilient


@pytest.fixture()
def case():
    return poisson2d_case(n=16)


def _events(tracer, name):
    evs = [e for e in tracer.orphan_events if e["name"] == name]
    for s in tracer.spans:
        evs.extend(e for e in s.events if e["name"] == name)
    return evs


class TestChainConfiguration:
    def test_chain_ends_in_jacobi(self):
        assert FALLBACK_CHAIN[-1] == "jacobi"

    def test_chain_names_known_preconditioners(self):
        assert set(FALLBACK_CHAIN) <= set(PRECONDITIONER_NAMES)


class TestCleanRun:
    def test_converged_first_try_has_one_attempt(self, case):
        res = ResilientSolver().solve(case, precond="schur1", nparts=2)
        assert res.converged and not res.recovered
        assert [a.kind for a in res.attempts] == ["primary"]
        assert res.final_precond == "schur1"


class TestFaultRecovery:
    """One scenario per fault class (the acceptance matrix of ISSUE.md)."""

    def test_bad_pivot_breakdown_falls_back(self, case):
        # every schur1 ILUT pivot zeroed: FactorizationBreakdown on the
        # primary AND the shifted retry, then the chain takes over
        plan = faults.FaultPlan(
            faults.FaultSpec("bad-pivot", count=-1, target="schur1")
        )
        with obs.tracing() as tracer, faults.inject(plan):
            res = ResilientSolver().solve(case, precond="schur1", nparts=2)
        assert res.recovered
        assert res.attempts[0].status == "breakdown"
        assert "pivots collapsed" in res.attempts[0].fault
        assert res.final_precond != "schur1"
        assert _events(tracer, "resilience.retry")
        assert _events(tracer, "resilience.fallback")
        assert _events(tracer, "faults.injected")

    def test_nan_kernel_recovers_on_retry(self, case):
        # one NaN in a matvec output: the guard classifies, the retry is
        # clean because the fault budget (count=1) is spent
        plan = faults.FaultPlan(faults.FaultSpec("nan-kernel", count=1))
        with obs.tracing() as tracer, faults.inject(plan):
            res = ResilientSolver().solve(case, precond="schur1", nparts=2)
        assert res.recovered
        assert res.attempts[0].status == "diverged"
        assert [a.kind for a in res.attempts] == ["primary", "retry"]
        retry_events = _events(tracer, "resilience.retry")
        assert retry_events and retry_events[0]["attrs"]["precond"] == "schur1"

    def test_corrupted_ghost_exchange_recovers(self, case):
        # NaN ghost values poison the inner interface solve
        plan = faults.FaultPlan(faults.FaultSpec("ghost-corrupt", count=3))
        with obs.tracing() as tracer, faults.inject(plan):
            res = ResilientSolver().solve(case, precond="schur1", nparts=2)
        assert res.recovered
        assert res.attempts[0].status == "diverged"
        assert _events(tracer, "resilience.retry")

    def test_divergent_inner_solve_walks_chain(self, case):
        # unlimited tiny pivots corrupt every schur1 factorization (primary
        # and retry): recovery must come from a different preconditioner
        plan = faults.FaultPlan(
            faults.FaultSpec("tiny-pivot", count=-1, target="schur1")
        )
        with obs.tracing() as tracer, faults.inject(plan):
            res = ResilientSolver().solve(case, precond="schur1", nparts=2)
        assert res.recovered
        assert res.final_precond != "schur1"
        fallback_events = _events(tracer, "resilience.fallback")
        assert fallback_events and fallback_events[0]["attrs"]["to"] != "schur1"
        # every attempt is classified, never silently swallowed
        assert all(a.status for a in res.attempts)

    def test_recovered_solution_is_correct(self, case):
        plan = faults.FaultPlan(faults.FaultSpec("nan-kernel", count=1))
        with faults.inject(plan):
            res = ResilientSolver().solve(case, precond="schur1", nparts=2)
        assert res.recovered
        out = res.outcome
        r = case.rhs - case.matrix @ out.x_global
        assert np.linalg.norm(r) <= 1e-5 * np.linalg.norm(case.rhs)


class TestChainExhaustion:
    def test_unbreakable_jacobi_survives_targeted_factor_faults(self, case):
        # fault every ILU factorization everywhere: only Jacobi (no
        # factorization at all) can complete
        plan = faults.FaultPlan(
            faults.FaultSpec(
                "bad-pivot", count=-1,
                target="schur1,schur2,block1,block2,blockk",
            )
        )
        with faults.inject(plan):
            res = ResilientSolver().solve(
                case, precond="schur1", nparts=2, maxiter=300
            )
        assert res.converged
        assert res.final_precond == "jacobi"

    def test_exhausted_chain_reports_last_failure(self, case, monkeypatch):
        monkeypatch.setattr(resilient, "MAX_RETRIES", 0)
        monkeypatch.setattr(resilient, "FALLBACK_CHAIN", ("block1",))
        plan = faults.FaultPlan(faults.FaultSpec("nan-kernel", count=-1))
        with faults.inject(plan):
            res = ResilientSolver().solve(case, precond="block1", nparts=2)
        assert not res.converged
        assert res.status == "diverged"
        assert res.outcome is None
        assert all(a.status == "diverged" for a in res.attempts)
