"""End-to-end over real OS processes: bitwise backend equality, and
kill-and-recover with a genuine SIGKILL mid-solve.

These are the acceptance tests for the multiprocess backend: the solver
must produce byte-identical answers whether ranks are simulated or real
processes, and a rank that is truly killed (not simulated) must be
detected, classified, and absorbed — with the recovered solution still
meeting the original convergence target.
"""

from collections import Counter

import numpy as np
import pytest

from repro import faults, obs
from repro.cases import build_case, poisson2d_case
from repro.comm.backends import MultiprocessBackend, framing, pool, worker
from repro.core.driver import solve_case
from repro.core.transient import TransientHeatSolver
from repro.mesh.grid2d import structured_rectangle
from repro.resilience import ResilientSolver
from repro.resilience.errors import RankDeadError


def _events(tracer, name):
    evs = [e for e in tracer.orphan_events if e["name"] == name]
    for s in tracer.spans:
        evs.extend(e for e in s.events if e["name"] == name)
    return evs


@pytest.fixture(scope="module")
def case():
    return poisson2d_case(12)


class TestBackendEquality:
    def test_solutions_bitwise_identical_across_backends(self, case):
        ref = solve_case(case, precond="schur1", nparts=3)
        out = solve_case(case, precond="schur1", nparts=3,
                         backend="multiprocess")
        assert out.status == ref.status == "converged"
        assert out.iterations == ref.iterations
        assert out.x_global.tobytes() == ref.x_global.tobytes()
        assert out.residuals == ref.residuals
        assert out.backend == "multiprocess" and ref.backend == "inprocess"

    def test_real_transport_actually_used(self, case):
        with obs.tracing() as tracer:
            out = solve_case(case, precond="schur1", nparts=2,
                             backend="multiprocess")
        assert out.status == "converged"
        assert out.comm_stats["messages"] > 0
        (sel,) = _events(tracer, "comm.backend.selected")
        assert sel["attrs"]["backend"] == "multiprocess"
        assert sel["attrs"]["real"] is True
        assert _events(tracer, "comm.backend.ready")


class TestKillAndRecover:
    def test_sigkilled_worker_is_classified_and_absorbed(self, case):
        """A real SIGKILL mid-solve ends in a recovered, accurate solution."""
        baseline = solve_case(case, precond="schur1", nparts=3)
        assert baseline.status == "converged"
        # the tolerance the original solve was asked to meet (default
        # rtol=1e-6 relative reduction from the zero initial guess)
        atol = 1e-6 * np.linalg.norm(case.rhs)

        plan = faults.FaultPlan(
            faults.FaultSpec("proc-kill", rank=2, start=4)
        )
        with obs.tracing() as tracer, faults.inject(plan):
            res = ResilientSolver().solve(
                case, precond="schur1", nparts=3, backend="multiprocess",
            )

        # the fault really fired against a real process
        (rec,) = plan.injected
        assert rec["kind"] == "proc-kill" and rec["degraded"] is False
        # the supervisor saw a process death, not a simulated timeout
        assert isinstance(res.attempts[0].error, RankDeadError)
        assert [a.kind for a in res.attempts] == ["primary", "rank-recovery"]
        assert res.recovered

        # recovered solution meets the original target
        out = res.outcome
        assert out.status == "converged"
        resid = np.linalg.norm(case.rhs - case.matrix @ out.x_global)
        assert resid <= atol

        exits = _events(tracer, "comm.backend.rank_exit")
        assert any(e["attrs"]["exitcode"] == -9 for e in exits)
        assert _events(tracer, "comm.backend.classified")

    def test_hang_is_fenced_then_recovered(self, case):
        """A SIGSTOPped worker exhausts the heartbeat budget, gets fenced
        (SIGKILL), and recovery proceeds exactly as for a crash."""
        plan = faults.FaultPlan(
            faults.FaultSpec("proc-hang", rank=1, start=4)
        )
        with obs.tracing() as tracer, faults.inject(plan):
            res = ResilientSolver().solve(
                case, precond="schur1", nparts=3, backend="multiprocess",
            )
        assert res.recovered
        assert res.outcome.status == "converged"
        assert _events(tracer, "comm.backend.heartbeat_miss")
        fenced = _events(tracer, "comm.backend.fenced")
        assert fenced and fenced[0]["attrs"]["rank"] == 1

    def test_transient_march_recovers_a_killed_rank(self, tmp_path):
        """A real SIGKILL mid-march of a multiprocess ``TransientHeatSolver``
        (Schur 1, P = 3): the survivors' world of 2 ranks keeps its own seq
        counters, and the march ends where the fault-free one does."""
        mesh = structured_rectangle(11, 11)
        u0 = np.sin(np.pi * mesh.points[:, 0]) * np.sin(np.pi * mesh.points[:, 1])

        def march(**kw):
            ths = TransientHeatSolver(
                mesh, dt=0.02, dirichlet_nodes=mesh.all_boundary_nodes(),
                precond="schur1", nparts=3, rtol=1e-10,
                backend="multiprocess", **kw,
            )
            try:
                return ths, ths.advance(u0, steps=6)
            finally:
                ths.close()

        _, u_ref = march()
        plan = faults.FaultPlan(faults.FaultSpec("proc-kill", rank=2, start=40))
        with obs.tracing() as tracer, faults.inject(plan):
            ths, u = march(checkpoint_dir=str(tmp_path))

        (rec,) = plan.injected
        assert rec["kind"] == "proc-kill" and rec["degraded"] is False
        assert ths.nparts == 2 and ths.step == 6
        assert any(s.name == "resilience.comm.recover" for s in tracer.spans)
        np.testing.assert_allclose(u, u_ref, atol=1e-8)


class TestGhostExchangeStaysOnTheDriver:
    @pytest.mark.parametrize("precond", ["schur1", "schur2"])
    def test_schur_writes_no_data_frame_to_a_rank(self, precond, monkeypatch):
        """Schur 1/2's interface exchanges are copies on the driver under
        every backend: a multiprocess solve pipes only its matvec command
        rounds (and, on a fresh world, one round shipping the row blocks),
        and its answer is the in-process one, bit for bit."""
        sent = Counter()
        send = MultiprocessBackend._send

        def counting(self, rank, raw):
            frame = framing.decode_frame(raw)
            op = worker.OP_NAMES[frame.payload[0]] if frame.kind == framing.CMD else None
            sent[frame.kind_name, op] += 1
            return send(self, rank, raw)

        monkeypatch.setattr(MultiprocessBackend, "_send", counting)
        case = build_case("tc1", 17)
        ref = solve_case(case, precond=precond, nparts=2)
        pool.drain()
        with obs.tracing():
            out = solve_case(case, precond=precond, nparts=2, backend="multiprocess")
        assert dict(sent) == {("cmd", "load-matrix"): 2, ("cmd", "matvec"): 16}
        assert out.iterations == ref.iterations
        assert out.x_global.tobytes() == ref.x_global.tobytes()


class TestWorkerResidentState:
    """Worker-resident subdomain compute: parity, shipping, and recovery."""

    def test_block2_bitwise_identical_across_backends(self, case):
        # block2's hot path (ILU sweeps + matvec) runs *in the workers* on
        # the multiprocess backend; the answers must still be bitwise equal
        ref = solve_case(case, precond="block2", nparts=3)
        out = solve_case(case, precond="block2", nparts=3,
                         backend="multiprocess")
        assert out.status == ref.status == "converged"
        assert out.iterations == ref.iterations
        assert out.x_global.tobytes() == ref.x_global.tobytes()
        assert out.residuals == ref.residuals

    def test_worker_rounds_carry_the_hot_path(self, case):
        with obs.tracing() as tracer:
            out = solve_case(case, precond="block2", nparts=2,
                             backend="multiprocess")
        assert out.status == "converged"
        rounds = sorted(_events(tracer, "comm.worker.round"), key=lambda e: e["t"])
        seq = [e["attrs"]["op"] for e in rounds]
        # sweeps and matvecs run worker-side every iteration; state ships
        # via load/factor rounds, and nothing else goes on the wire
        assert set(seq) <= {"load-matrix", "load-factor", "factor", "apply", "matvec"}
        assert "apply" in seq and "matvec" in seq
        assert set(seq) & {"load-factor", "factor"}
        # every preconditioned vector goes straight into the next matvec
        preconditioned = sum(pair == ("apply", "matvec") for pair in zip(seq, seq[1:]))
        assert seq.count("apply") == preconditioned
        # per-rank attribution present on every round
        for e in rounds:
            assert len(e["attrs"]["seconds"]) == len(e["attrs"]["ranks"])
            assert len(e["attrs"]["cpu_seconds"]) == len(e["attrs"]["ranks"])
        # content addressing: factors ship once, not once per iteration
        napply = sum(1 for e in rounds if e["attrs"]["op"] == "apply")
        nload = sum(1 for e in rounds
                    if e["attrs"]["op"] in ("load-factor", "load-matrix",
                                            "factor"))
        assert napply > 2 * nload

    def test_kill_mid_solve_reships_worker_state_and_recovers(self, case):
        """SIGKILL a rank mid-iteration: the recovered solve must re-ship
        subdomain state to a fresh worker fleet and still hit the original
        convergence target (satellite: worker-resident state across
        ``absorb_rank``)."""
        baseline = solve_case(case, precond="block2", nparts=3)
        assert baseline.status == "converged"
        atol = 1e-6 * np.linalg.norm(case.rhs)

        plan = faults.FaultPlan(
            faults.FaultSpec("proc-kill", rank=2, start=6)
        )
        with obs.tracing() as tracer, faults.inject(plan):
            res = ResilientSolver().solve(
                case, precond="block2", nparts=3, backend="multiprocess",
            )
        (rec,) = plan.injected
        assert rec["kind"] == "proc-kill"
        assert res.recovered
        out = res.outcome
        assert out.status == "converged"
        resid = np.linalg.norm(case.rhs - case.matrix @ out.x_global)
        assert resid <= atol

        # worker state moved twice: once in the primary attempt, and again
        # after recovery built a fresh backend, whose ranks hold nothing
        rounds = _events(tracer, "comm.worker.round")
        ship_rounds = [e for e in rounds
                       if e["attrs"]["op"] in ("load-factor", "load-matrix")]
        assert len(ship_rounds) >= 2

    def test_reshipped_keys_match_content_identity(
        self, partitioned_poisson, monkeypatch
    ):
        """A fresh communicator (what recovery creates) re-ships under the
        *same* content digests — the reloaded subdomain hash matches what
        the original world's ranks hold."""
        from repro.comm.backends import pool
        from repro.comm.communicator import Communicator
        from repro.factor import cache as factor_cache
        from repro.precond.block_jacobi import block2

        # the rebuilt preconditioner finds its factors in the driver's cache
        monkeypatch.setattr(factor_cache.get_cache(), "enabled", True)
        pm, dmat, rhs, _ = partitioned_poisson
        r = pm.to_distributed(rhs)
        comm = Communicator(pm.num_ranks, backend="multiprocess")
        try:
            M = block2(dmat, comm)
            z = M.apply(r)
            assert np.isfinite(z).all()
            keys = dict(M.local_solver.keys)
        finally:
            comm.close()
        # recovery semantics: the preconditioner is rebuilt on a brand-new
        # world (recovery never reuses the damaged one; draining the pool
        # plays that here) whose ranks hold nothing; the factors come from
        # the driver's cache, every rank refuses the first solve, and the
        # factors are re-shipped under the identical content keys, which
        # the second solve then finds resident
        pool.drain()
        comm2 = Communicator(pm.num_ranks, backend="multiprocess")
        try:
            with obs.tracing() as tracer:
                M2 = block2(dmat, comm2)
                z2 = M2.apply(r)
                M2.apply(r)
            assert M2.local_solver.keys == keys
            assert z2.tobytes() == z.tobytes()
            rounds = _events(tracer, "comm.worker.round")
            assert [e["attrs"]["op"] for e in rounds] == ["load-factor", "apply", "apply"]
            assert rounds[0]["attrs"]["ranks"] == sorted(keys)
        finally:
            comm2.close()


class TestBackendDeterminismCheck:
    def test_check_backend_reports_identical(self, case):
        from repro.analysis.determinism import check_determinism

        report = check_determinism([case], nparts=3, checks=["backend"])
        kinds = {c.kind for c in report.checks}
        assert kinds == {"backend"}
        assert report.identical
        assert report.checks  # one per case
