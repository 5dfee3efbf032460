import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.triangular import (
    TriangularFactor,
    solve_lower_unit,
    solve_upper,
)


def lower_strict(n, density, seed):
    return sp.tril(sp.random(n, n, density, random_state=seed), -1, format="csr")


class TestTriangularSolve:
    @pytest.mark.parametrize("n,density", [(1, 0.0), (10, 0.2), (100, 0.05), (300, 0.01)])
    def test_lower_unit_solve_matches_construction(self, n, density, rng):
        l = lower_strict(n, density, 42)
        x = rng.random(n)
        b = (sp.eye(n) + l) @ x
        assert np.allclose(solve_lower_unit(l, b), x, atol=1e-10)

    @pytest.mark.parametrize("n,density", [(1, 0.0), (10, 0.2), (100, 0.05)])
    def test_upper_solve_matches_construction(self, n, density, rng):
        u = (sp.triu(sp.random(n, n, density, random_state=7), 1) + sp.eye(n) * 3).tocsr()
        x = rng.random(n)
        assert np.allclose(solve_upper(u, u @ x), x, atol=1e-10)

    def test_matches_scipy_spsolve_triangular(self, rng):
        n = 60
        l = lower_strict(n, 0.1, 5)
        full = (sp.eye(n) + l).tocsr()
        b = rng.random(n)
        import scipy.sparse.linalg as spla

        expected = spla.spsolve_triangular(full.tocsc().tocsr(), b, lower=True)
        assert np.allclose(solve_lower_unit(l, b), expected, atol=1e-10)

    def test_zero_diag_rejected(self):
        u = sp.eye(3, format="csr") * 0.0
        strict = sp.csr_matrix((3, 3))
        with pytest.raises(ZeroDivisionError):
            TriangularFactor(strict, np.zeros(3), lower=False)

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            TriangularFactor(sp.csr_matrix((2, 3)), None, lower=True)

    def test_flops_counts_nnz(self):
        l = lower_strict(50, 0.1, 1)
        f = TriangularFactor(l, None, lower=True)
        assert f.flops() == 2 * l.nnz
        u = TriangularFactor(sp.csr_matrix((50, 50)), np.ones(50), lower=False)
        assert u.flops() == 50

    def test_solve_does_not_mutate_rhs(self, rng):
        l = lower_strict(20, 0.2, 9)
        b = rng.random(20)
        b0 = b.copy()
        solve_lower_unit(l, b)
        assert np.array_equal(b, b0)

    def test_independent_two_chains(self, rng):
        # block-diagonal of independent 2-chains
        n = 200
        rows = np.arange(1, n, 2)
        cols = rows - 1
        l = sp.coo_matrix((np.full(len(rows), 0.5), (rows, cols)), shape=(n, n)).tocsr()
        f = TriangularFactor(l, None, lower=True)
        x = rng.random(n)
        assert np.allclose(f.solve((sp.eye(n) + l) @ x), x)
