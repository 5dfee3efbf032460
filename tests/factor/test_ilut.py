import numpy as np
import pytest
import scipy.sparse as sp

from repro.factor.ilut import ilut
from tests.conftest import random_nonsymmetric_csr, random_spd_csr


class TestIlut:
    def test_no_dropping_gives_exact_lu(self):
        a = random_nonsymmetric_csr(35, 0.2, 0)
        fac = ilut(a, drop_tol=0.0, fill=35)
        assert abs(fac.as_product() - a).max() < 1e-10

    def test_fill_cap_respected(self):
        a = random_spd_csr(50, 0.3, 1)
        p = 4
        fac = ilut(a, drop_tol=0.0, fill=p)
        from repro.sparse.csr import nnz_per_row

        assert nnz_per_row(fac.l_strict).max() <= p
        # U stores diagonal + at most p off-diagonals
        assert nnz_per_row(fac.u_upper).max() <= p + 1

    def test_larger_fill_better_approximation(self):
        a = random_spd_csr(60, 0.15, 2)
        dense = a.toarray()
        errs = []
        for p in (2, 6, 20):
            fac = ilut(a, drop_tol=0.0, fill=p)
            errs.append(np.abs(fac.as_product().toarray() - dense).max())
        assert errs[0] >= errs[1] >= errs[2]

    def test_tighter_tolerance_better_preconditioner(self):
        from repro.krylov.fgmres import fgmres

        a = random_nonsymmetric_csr(120, 0.06, 3)
        b = np.ones(120)
        iters = []
        for tol in (1e-1, 1e-4):
            fac = ilut(a, drop_tol=tol, fill=15)
            res = fgmres(lambda v: a @ v, b, apply_m=fac.solve, rtol=1e-8, maxiter=200)
            iters.append(res.iterations)
        assert iters[1] <= iters[0]

    def test_beats_ilu0_on_fe_matrix(self, poisson_system):
        from repro.factor.ilu0 import ilu0
        from repro.krylov.fgmres import fgmres

        a, rhs, _ = poisson_system
        r0 = fgmres(lambda v: a @ v, rhs, apply_m=ilu0(a).solve, rtol=1e-8, maxiter=300)
        r1 = fgmres(
            lambda v: a @ v, rhs, apply_m=ilut(a, 1e-3, 10).solve, rtol=1e-8, maxiter=300
        )
        assert r1.iterations <= r0.iterations

    def test_invalid_parameters(self):
        a = random_spd_csr(10, 0.3, 4)
        with pytest.raises(ValueError):
            ilut(a, drop_tol=-1.0)
        with pytest.raises(ValueError):
            ilut(a, fill=0)

    def test_zero_row_norm_handled(self):
        # row 0 holds only an explicitly stored zero diagonal
        a = sp.csr_matrix(
            (np.array([0.0, 1.0]), np.array([0, 1]), np.array([0, 1, 2])),
            shape=(2, 2),
        )
        fac = ilut(a, 1e-3, 5)
        assert np.all(np.isfinite(fac.solve(np.ones(2))))

    def test_unit_lower_diagonal_implicit(self):
        a = random_spd_csr(20, 0.3, 5)
        fac = ilut(a, 1e-4, 10)
        # strictly lower: no diagonal entries stored in L
        assert all(
            i not in fac.l_strict.indices[fac.l_strict.indptr[i] : fac.l_strict.indptr[i + 1]]
            for i in range(20)
        )

    def test_fill_in_beyond_pattern_occurs(self):
        """Unlike ILU(0), ILUT introduces fill entries outside pattern(A)."""
        a = random_spd_csr(40, 0.08, 6)
        fac = ilut(a, drop_tol=0.0, fill=40)
        a_bool = a.copy()
        a_bool.data[:] = 1.0
        lu = (fac.l_strict + fac.u_upper).tocsr()
        lu.data[:] = 1.0
        extra = (lu - lu.multiply(a_bool)).nnz
        assert extra > 0
