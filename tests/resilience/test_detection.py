"""Detection: NaN/Inf guards, the divergence detector, statuses."""

import numpy as np
import pytest

from repro.cases.poisson2d import poisson2d_case
from repro.comm.communicator import Communicator
from repro.core.driver import solve_case
from repro.distributed.partition_map import PartitionMap
from repro.distributed.matrix import distribute_matrix
from repro.krylov import STATUSES
from repro.krylov.fgmres import fgmres
from repro.krylov.monitors import ConvergenceMonitor, KrylovResult
from repro.precond.base import ParallelPreconditioner
from repro.resilience import NumericalFault


class TestKrylovResultStatus:
    def test_status_validated(self):
        with pytest.raises(ValueError, match="unknown status"):
            KrylovResult(np.zeros(1), 0, "exploded", [1.0])

    def test_converged_property_derives_from_status(self):
        for status in STATUSES:
            res = KrylovResult(np.zeros(1), 1, status, [1.0])
            assert res.converged == (status == "converged")


class TestMonitorDetectors:
    def _monitor(self, residuals, **kw):
        mon = ConvergenceMonitor(**kw)
        mon.start(residuals[0])
        for r in residuals[1:]:
            mon.check(r)
        return mon

    def test_nonfinite_residual_is_divergence(self):
        mon = self._monitor([1.0, 0.5, float("nan")])
        assert mon.diverged()

    def test_residual_explosion_is_divergence(self):
        mon = self._monitor([1.0, 1e11], divtol=1e10)
        assert mon.diverged()

    def test_divtol_none_disables_growth_test(self):
        mon = self._monitor([1.0, 1e30], divtol=None)
        assert not mon.diverged()


class TestFgmresDivergenceDetection:
    def test_nan_operator_yields_diverged_with_finite_iterate(self):
        # the operator output goes NaN on the 3rd application: the solver
        # must classify the run instead of crashing or returning NaN
        n = 8
        a = np.diag(np.arange(1.0, n + 1))
        calls = {"k": 0}

        def apply_a(v):
            calls["k"] += 1
            y = a @ v
            if calls["k"] >= 3:
                y[0] = np.nan
            return y

        res = fgmres(apply_a, np.ones(n), restart=4, maxiter=20)
        assert res.status == "diverged"
        assert not res.converged
        assert np.all(np.isfinite(res.x))

    def test_nonfinite_initial_residual_diverges_immediately(self):
        def apply_a(v):
            return np.full_like(v, np.nan)

        res = fgmres(apply_a, np.ones(4), restart=4, maxiter=10)
        assert res.status == "diverged" and res.iterations == 0

    def test_maxiter_is_not_divergence(self):
        a = np.diag(np.linspace(1, 100, 30))
        res = fgmres(lambda v: a @ v, np.ones(30), restart=3, maxiter=3)
        assert res.status == "maxiter"
        assert not res.converged


class TestDistributedGuards:
    def _dist_setup(self, nparts=2):
        case = poisson2d_case(n=10)
        membership = case.membership(nparts, seed=0)
        pm = PartitionMap(case.coupling_graph, membership, num_ranks=nparts)
        return distribute_matrix(case.matrix, pm), Communicator(nparts), pm

    def test_matvec_guard_raises_numerical_fault(self):
        dmat, comm, pm = self._dist_setup()
        x = np.full(pm.layout.total, np.nan)
        with pytest.raises(NumericalFault, match="matvec"):
            dmat.matvec(comm, x)

    def test_matvec_clean_input_passes(self):
        dmat, comm, pm = self._dist_setup()
        y = dmat.matvec(comm, np.ones(pm.layout.total))
        assert np.all(np.isfinite(y))

    def test_precond_apply_guard(self):
        dmat, comm, pm = self._dist_setup()

        class BadPreconditioner(ParallelPreconditioner):
            name = "bad"

            def apply(self, r):
                z = r.copy()
                z[0] = np.inf
                return z

        bad = BadPreconditioner(dmat, comm)
        with pytest.raises(NumericalFault, match="bad preconditioner"):
            bad(np.ones(pm.layout.total))
        # calling .apply directly skips the guard (documented contract)
        assert np.isinf(bad.apply(np.ones(pm.layout.total))[0])


class TestSolveOutcomeStatus:
    def test_solve_outcome_carries_status(self):
        out = solve_case(poisson2d_case(n=12), precond="block1", nparts=2)
        assert out.status == "converged" and out.converged

    def test_budget_exhaustion_is_maxiter(self):
        out = solve_case(
            poisson2d_case(n=24), precond="none", nparts=2, maxiter=3
        )
        assert out.status == "maxiter" and not out.converged
