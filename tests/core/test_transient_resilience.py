"""TransientHeatSolver fault tolerance: status threading, checkpoints,
kill-and-resume, and in-place rank-failure recovery (docs/robustness.md)."""

import numpy as np
import pytest

from repro import faults, obs
from repro.core.transient import TransientHeatSolver
from repro.mesh.grid2d import structured_rectangle
from repro.resilience.errors import NumericalFault, TransientStepFailure


def _mesh():
    return structured_rectangle(11, 11)


def _u0(mesh):
    return np.sin(np.pi * mesh.points[:, 0]) * np.sin(np.pi * mesh.points[:, 1])


def _solver(mesh, **kw):
    kw.setdefault("precond", "schur1")
    kw.setdefault("nparts", 3)
    kw.setdefault("rtol", 1e-10)
    return TransientHeatSolver(
        mesh, dt=0.02, dirichlet_nodes=mesh.all_boundary_nodes(), **kw
    )


class TestStepStatus:
    def test_records_carry_status(self):
        mesh = _mesh()
        ths = _solver(mesh)
        ths.advance(_u0(mesh), steps=2)
        assert [rec.status for rec in ths.history] == ["converged", "converged"]

    def test_breakdown_stops_the_march(self):
        # starve FGMRES of iterations: the step classifies as maxiter and
        # the march raises instead of silently appending garbage states
        mesh = _mesh()
        ths = _solver(mesh, maxiter=1, rtol=1e-14)
        with pytest.raises(TransientStepFailure) as exc:
            ths.advance(_u0(mesh), steps=3)
        assert exc.value.context["step"] == 1
        assert exc.value.status == "maxiter"
        # the failed step is still recorded, classified
        assert len(ths.history) == 1
        assert ths.history[0].status == "maxiter"
        assert not ths.history[0].converged


class TestStagedLikeSolveCase:
    """A march runs the stages ``solve_case`` runs, with their ledgers and
    fault scopes."""

    def test_ledgers_carry_the_working_set(self):
        ths = _solver(_mesh())
        ws = ths.setup_ledger.working_set_bytes
        assert ws is not None and ws.shape == (ths.nparts,) and ws.min() > 0
        assert ths.comm.ledger.working_set_bytes is ws

    def test_targeted_faults_reach_set_up_and_steps(self):
        mesh = _mesh()
        plan = faults.FaultPlan([
            faults.FaultSpec("bad-pivot", target="block2"),
            faults.FaultSpec("nan-kernel", target="block2"),
        ])
        with faults.inject(plan):
            ths = _solver(mesh, precond="block2")
            with pytest.raises(NumericalFault):
                ths.advance(_u0(mesh), steps=1)
        assert [(r["kind"], r["scope"]) for r in plan.injected] == [
            ("bad-pivot", "block2"), ("nan-kernel", "block2"),
        ]


class TestCheckpointResume:
    def test_kill_and_resume_matches_uninterrupted(self, tmp_path):
        mesh = _mesh()
        u0 = _u0(mesh)

        # the uninterrupted reference march
        ref = _solver(mesh)
        u_ref = ref.advance(u0, steps=6)

        # march 3 steps, then "crash" (drop the solver object)
        first = _solver(mesh, checkpoint_dir=str(tmp_path))
        first.advance(u0, steps=3)
        del first

        # a fresh process restores and finishes the remaining steps
        second = _solver(mesh, checkpoint_dir=str(tmp_path))
        restored = second.restore()
        assert restored is not None
        u, step = restored
        assert step == 3
        u_final = second.advance(u, steps=3)
        np.testing.assert_allclose(u_final, u_ref, atol=1e-8)

    def test_restore_without_snapshot_returns_none(self, tmp_path):
        mesh = _mesh()
        ths = _solver(mesh, checkpoint_dir=str(tmp_path))
        assert ths.restore() is None

    def test_restore_requires_checkpoint_dir(self):
        mesh = _mesh()
        with pytest.raises(ValueError, match="checkpoint_dir"):
            _solver(mesh).restore()

    def test_checkpoint_every_thins_snapshots(self, tmp_path):
        mesh = _mesh()
        ths = _solver(mesh, checkpoint_dir=str(tmp_path), checkpoint_every=2)
        ths.advance(_u0(mesh), steps=5)
        assert ths.checkpoints.steps() == [2, 4]


class TestRankFailureMidMarch:
    def test_rank_dead_recovery_matches_fault_free(self, tmp_path):
        mesh = _mesh()
        u0 = _u0(mesh)
        u_ref = _solver(mesh).advance(u0, steps=6)

        plan = faults.FaultPlan(faults.FaultSpec("rank-dead", rank=2, start=40))
        ths = _solver(mesh, checkpoint_dir=str(tmp_path))
        with obs.tracing() as tracer, faults.inject(plan):
            u = ths.advance(u0, steps=6)

        assert plan.injected  # the fault really fired
        assert ths.nparts == 2  # survivors absorbed the dead subdomain
        assert ths.step == 6
        # acceptance bar: same solution as the fault-free run within 1e-8
        np.testing.assert_allclose(u, u_ref, atol=1e-8)
        names = [s.name for s in tracer.spans]
        assert "resilience.comm.recover" in names

    def test_recovery_without_checkpoints_retries_current_step(self):
        mesh = _mesh()
        u0 = _u0(mesh)
        u_ref = _solver(mesh).advance(u0, steps=4)

        plan = faults.FaultPlan(faults.FaultSpec("rank-dead", rank=1, start=25))
        ths = _solver(mesh)
        with faults.inject(plan):
            u = ths.advance(u0, steps=4)
        assert plan.injected
        assert ths.nparts == 2
        np.testing.assert_allclose(u, u_ref, atol=1e-8)

    def test_recovery_rebuild_is_charged_to_set_up(self, tmp_path):
        # the survivors' rebuild is a set-up: it replaces the dead world's
        # set-up ledger, and the step ledger keeps only steps — what a solver
        # built on the survivor layout (restored from the post-recovery
        # snapshot) charges for the same march from the same state.  Rank 1
        # dies in step 1, before any snapshot, so step 1 is retried from u0.
        mesh = _mesh()
        u0 = _u0(mesh)
        plan = faults.FaultPlan(faults.FaultSpec("rank-dead", rank=1, start=3))
        ths = _solver(mesh, checkpoint_dir=str(tmp_path))
        with faults.inject(plan):
            ths.advance(u0, steps=3)
        assert plan.injected
        assert ths.nparts == 2
        assert ths.setup_ledger.num_ranks == ths.nparts

        twin = _solver(mesh, checkpoint_dir=str(tmp_path))
        twin.restore()
        assert twin.nparts == 2
        twin.advance(u0, steps=3)
        assert ths.setup_ledger.counts() == twin.setup_ledger.counts()
        assert ths.comm.ledger.counts() == twin.comm.ledger.counts()

    def test_survivor_layout_persists_across_restore(self, tmp_path):
        # a post-recovery snapshot stores the shrunk membership; a fresh
        # process re-adopts it instead of re-partitioning for 3 ranks
        mesh = _mesh()
        u0 = _u0(mesh)
        plan = faults.FaultPlan(faults.FaultSpec("rank-dead", rank=2, start=40))
        ths = _solver(mesh, checkpoint_dir=str(tmp_path))
        with faults.inject(plan):
            ths.advance(u0, steps=4)
        assert ths.nparts == 2

        fresh = _solver(mesh, checkpoint_dir=str(tmp_path))
        assert fresh.nparts == 3
        u, step = fresh.restore()
        assert fresh.nparts == 2
        np.testing.assert_array_equal(fresh.membership, ths.membership)
        u_final = fresh.advance(u, steps=6 - step)
        u_ref = _solver(mesh).advance(u0, steps=6)
        np.testing.assert_allclose(u_final, u_ref, atol=1e-8)
