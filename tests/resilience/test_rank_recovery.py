"""ResilientSolver rank-failure recovery."""

import pytest

from repro import faults, obs
from repro.cases.poisson2d import poisson2d_case
from repro.resilience import RankDeadError, ResilientSolver, resilient


@pytest.fixture()
def case():
    return poisson2d_case(n=16)


def _events(tracer, name):
    evs = [e for e in tracer.orphan_events if e["name"] == name]
    for s in tracer.spans:
        evs.extend(e for e in s.events if e["name"] == name)
    return evs


class TestRankRecovery:
    def test_dead_rank_absorbed_and_solve_resumes(self, case):
        plan = faults.FaultPlan(faults.FaultSpec("rank-dead", rank=2, start=4))
        with obs.tracing() as tracer, faults.inject(plan):
            res = ResilientSolver().solve(case, precond="schur1", nparts=3)
        assert res.recovered
        assert [a.kind for a in res.attempts] == ["primary", "rank-recovery"]
        assert res.attempts[0].status == "breakdown"
        assert isinstance(res.attempts[0].error, RankDeadError)
        # the re-solve ran on the shrunk world
        assert res.outcome.nparts == 2
        assert res.outcome.error is not None and res.outcome.error < 1e-3
        # recovery is visible in the trace
        spans = [s for s in tracer.spans if s.name == "resilience.comm.recover"]
        assert len(spans) == 1 and spans[0].attrs["rank"] == 2

    def test_recovery_restores_from_checkpoint(self, case, tmp_path):
        # a tight tolerance and short restart force several FGMRES cycles,
        # so checkpoints exist before the rank dies; the recovery attempt
        # restores the iterate from disk and finishes the *original* job
        # (the saved target becomes the restored solve's absolute goal)
        plan = faults.FaultPlan(faults.FaultSpec("rank-dead", rank=1, start=30))
        with obs.tracing() as tracer, faults.inject(plan):
            res = ResilientSolver().solve(
                case, precond="schur1", nparts=3, rtol=1e-12, restart=3,
                checkpoint_dir=str(tmp_path),
            )
        assert res.recovered
        assert [a.kind for a in res.attempts] == ["primary", "rank-recovery"]
        assert _events(tracer, "resilience.ckpt.save")
        assert _events(tracer, "resilience.ckpt.restore")

    def test_world_can_shrink_to_one_rank(self, case):
        # a 2-rank world recovers into a serial solve: the survivor owns
        # everything and there is nothing left to exchange (or to kill)
        plan = faults.FaultPlan(faults.FaultSpec("rank-dead", rank=1, start=2))
        with faults.inject(plan):
            res = ResilientSolver().solve(case, precond="schur1", nparts=2)
        assert res.recovered
        assert res.outcome.nparts == 1

    def test_injection_is_deterministic(self, case):
        def run():
            plan = faults.FaultPlan(faults.FaultSpec("rank-dead", rank=2, start=4))
            with faults.inject(plan):
                res = ResilientSolver().solve(case, precond="schur1", nparts=3)
            return (
                plan.injected,
                [(a.kind, a.status, a.iterations) for a in res.attempts],
                res.outcome.iterations,
            )

        assert run() == run()


class TestRetryAndFallback:
    def test_breakdown_retries_then_falls_back(self, case, monkeypatch):
        # zero every block1 ILU pivot: the primary and the shifted retry
        # both break down, then the one-entry chain recovers
        plan = faults.FaultPlan(
            faults.FaultSpec("bad-pivot", count=-1, target=("block1",))
        )
        monkeypatch.setattr(resilient, "FALLBACK_CHAIN", ("jacobi",))
        with faults.inject(plan):
            res = ResilientSolver().solve(case, precond="block1", nparts=2)
        assert res.recovered
        kinds = [a.kind for a in res.attempts]
        assert kinds == ["primary", "retry", "fallback"]
        assert res.final_precond == "jacobi"

    def test_solver_choice_refused(self, case):
        # the outer solver is always FGMRES: solve_case takes no solver=
        with pytest.raises(TypeError, match="solver"):
            ResilientSolver().solve(case, precond="jacobi", solver="cg")
