"""FGMRES as the paper's GMRES: fixed preconditioners and fixed budgets."""

import numpy as np

from repro.krylov.fgmres import fgmres
from tests.conftest import random_nonsymmetric_csr


class TestGmres:
    def test_identical_to_fgmres_with_fixed_preconditioner(self, rng):
        """With a fixed M, FGMRES generates the iterates of right-preconditioned
        GMRES: GMRES on A M^{-1} followed by x = M^{-1} y."""
        from repro.factor.ilu0 import ilu0

        a = random_nonsymmetric_csr(60, 0.12, 0)
        b = rng.random(60)
        fac = ilu0(a)
        r1 = fgmres(lambda v: a @ fac.solve(v), b, rtol=1e-9, maxiter=100)
        r2 = fgmres(lambda v: a @ v, b, apply_m=fac.solve, rtol=1e-9, maxiter=100)
        assert r1.iterations == r2.iterations
        assert np.allclose(fac.solve(r1.x), r2.x)

    def test_fixed_iteration_budget_mode(self, rng):
        """The Schur preconditioners run GMRES for an exact iteration budget
        (rtol tiny): iterations == maxiter when unconverged."""
        a = random_nonsymmetric_csr(80, 0.1, 1)
        res = fgmres(lambda v: a @ v, rng.random(80), rtol=1e-14, maxiter=5, restart=5)
        assert res.iterations == 5

    def test_matches_scipy_gmres_quality(self, rng):
        import scipy.sparse.linalg as spla

        a = random_nonsymmetric_csr(100, 0.08, 2)
        b = rng.random(100)
        ours = fgmres(lambda v: a @ v, b, restart=20, rtol=1e-8, maxiter=400)
        x_sp, info = spla.gmres(a, b, restart=20, rtol=1e-8, maxiter=400)
        assert ours.converged and info == 0
        assert np.linalg.norm(b - a @ ours.x) <= 1.5 * max(
            np.linalg.norm(b - a @ x_sp), 1e-8 * np.linalg.norm(b)
        )
