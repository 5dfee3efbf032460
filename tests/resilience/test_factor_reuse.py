"""The fallback chain on a cached operator performs zero redundant
factorizations (the factor-cache acceptance criterion of ISSUE 4)."""

import pytest

from repro import faults
from repro.cases.poisson2d import poisson2d_case
from repro.factor import cache as factor_cache
from repro.resilience import ResilientSolver, resilient


@pytest.fixture()
def case():
    return poisson2d_case(n=16)


@pytest.fixture(autouse=True)
def fresh_cache():
    cache = factor_cache.configure(enabled=True)
    cache.clear()
    cache.reset_stats()
    yield cache
    cache.clear()
    cache.reset_stats()


class TestZeroRedundantFactorizations:
    def test_fallback_reuses_primary_factors(self, case, fresh_cache, monkeypatch):
        """Block K and Block 2 issue identical ILUT calls on the same owned
        blocks, so after Block K diverges on a transient matvec NaN, the
        Block 2 fallback must find every factor in the cache — the operator
        has not changed, and re-factoring it would be pure waste."""
        nparts = 4
        plan = faults.FaultPlan(faults.FaultSpec("nan-kernel", count=1))
        monkeypatch.setattr(resilient, "MAX_RETRIES", 0)
        monkeypatch.setattr(resilient, "FALLBACK_CHAIN", ("block2",))
        solver = ResilientSolver()
        with faults.inject(plan):
            res = solver.solve(case, precond="blockk", nparts=nparts)

        assert res.recovered
        assert [a.kind for a in res.attempts] == ["primary", "fallback"]
        assert res.final_precond == "block2"

        s = fresh_cache.stats()
        # primary setup factored each subdomain block once (all misses);
        # the fallback's setup was served entirely from the cache
        assert s["misses"] == nparts
        assert s["hits"] == nparts
        assert s["bypasses"] == 0

    def test_same_precond_repeat_solve_is_all_hits(self, case, fresh_cache, monkeypatch):
        """A clean re-solve of an unchanged operator re-factors nothing."""
        monkeypatch.setattr(resilient, "MAX_RETRIES", 0)
        monkeypatch.setattr(resilient, "FALLBACK_CHAIN", ())
        solver = ResilientSolver()
        res1 = solver.solve(case, precond="block2", nparts=4)
        assert res1.converged
        misses_after_first = fresh_cache.stats()["misses"]
        assert misses_after_first == 4

        res2 = solver.solve(case, precond="block2", nparts=4)
        assert res2.converged
        s = fresh_cache.stats()
        assert s["misses"] == misses_after_first  # no new factorizations
        assert s["hits"] == 4

    def test_retry_with_remedies_is_an_honest_miss(self, case, fresh_cache, monkeypatch):
        """The shifted retry factors a different operator (A + sigma*I with
        tightened dropping), so it must NOT be served from the cache."""
        plan = faults.FaultPlan(
            faults.FaultSpec("tiny-pivot", count=-1, target="block2",
                             stride=100)
        )
        monkeypatch.setattr(resilient, "FALLBACK_CHAIN", ())
        solver = ResilientSolver()
        with faults.inject(plan):
            res = solver.solve(
                case, precond="block2", nparts=4,
                precond_params={"drop_tol": 1e-3},
            )
        kinds = [a.kind for a in res.attempts]
        assert kinds[0] == "primary"
        assert "retry" in kinds
        s = fresh_cache.stats()
        # the unbounded live pivot spec keeps every block2 factorization on
        # the bypass path; nothing is cached, nothing is wrongly reused
        assert s["hits"] == 0
        assert s["bypasses"] >= 8  # primary + retry, 4 blocks each
