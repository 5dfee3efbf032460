import numpy as np
import pytest

from repro.factor.arms import ArmsFactorization, arms_factor
from repro.graph.adjacency import graph_from_matrix
from repro.graph.independent_sets import verify_group_independence
from tests.conftest import random_spd_csr


@pytest.fixture(scope="module")
def fe_matrix(request):
    from repro.fem.assembly import assemble_load, assemble_stiffness
    from repro.fem.boundary import apply_dirichlet
    from repro.mesh.grid2d import structured_rectangle

    mesh = structured_rectangle(15, 15)
    raw = assemble_stiffness(mesh)
    bn = mesh.all_boundary_nodes()
    a, _ = apply_dirichlet(raw, np.zeros(mesh.num_points), bn, 0.0)
    return a


class TestArmsFactorization:
    def test_grouped_block_is_block_diagonal(self, fe_matrix):
        fac = arms_factor(fe_matrix, fe_matrix.shape[0], group_size=12, seed=0)
        ptr = fac.gis.group_ptr
        d = fac.D.toarray()
        for k in range(len(fac.gis.groups)):
            lo, hi = ptr[k], ptr[k + 1]
            # zero outside the diagonal blocks
            d[lo:hi, lo:hi] = 0.0
        assert np.abs(d).max() == 0.0

    def test_group_independence_invariant(self, fe_matrix):
        fac = arms_factor(fe_matrix, fe_matrix.shape[0], group_size=12, seed=0)
        g = graph_from_matrix(fe_matrix)
        assert verify_group_independence(g, fac.gis)

    def test_d_solve_is_exact(self, fe_matrix, rng):
        fac = arms_factor(fe_matrix, fe_matrix.shape[0], group_size=12, seed=0)
        x = rng.random(fac.n_grouped)
        assert np.allclose(fac.solve_d(fac.D @ x), x, atol=1e-10)

    def test_schur_matches_exact_without_dropping(self, fe_matrix):
        fac = arms_factor(fe_matrix, fe_matrix.shape[0], group_size=12, drop_tol=0.0, seed=0)
        d = fac.D.toarray()
        s_exact = (
            fac.C.toarray()
            - fac.E.toarray() @ np.linalg.inv(d) @ fac.F.toarray()
        )
        assert np.abs(fac.s_hat.toarray() - s_exact).max() < 1e-10

    def test_forward_back_roundtrip_is_exact_solve_with_exact_schur(self, fe_matrix, rng):
        """With exact Ŝ solve, ARMS elimination is an exact A solve."""
        fac = arms_factor(fe_matrix, fe_matrix.shape[0], group_size=12, drop_tol=0.0, seed=0)
        x = rng.random(fe_matrix.shape[0])
        r = fe_matrix @ x
        f, ghat = fac.forward_eliminate(r)
        y = np.linalg.solve(fac.s_hat.toarray(), ghat)
        z = fac.back_substitute(f, y)
        assert np.allclose(z, x, atol=1e-8)

    def test_solve_is_useful_preconditioner(self, fe_matrix, rng):
        from repro.krylov.fgmres import fgmres

        fac = arms_factor(fe_matrix, fe_matrix.shape[0], group_size=16, seed=0)
        b = rng.random(fe_matrix.shape[0])
        plain = fgmres(lambda v: fe_matrix @ v, b, rtol=1e-8, maxiter=400)
        pre = fgmres(lambda v: fe_matrix @ v, b, apply_m=fac.solve, rtol=1e-8, maxiter=400)
        assert pre.converged
        assert pre.iterations < 0.5 * plain.iterations

    def test_interface_candidates_respected(self, fe_matrix):
        """Unknowns at/above n_internal never join groups — they form the
        trailing slice of the expanded interface in owned order."""
        ni = fe_matrix.shape[0] - 40
        fac = arms_factor(fe_matrix, ni, group_size=12, seed=0)
        assert fac.n_interdomain == 40
        grouped = np.concatenate(fac.gis.groups) if fac.gis.groups else np.empty(0)
        assert np.all(grouped < ni)
        # trailing expanded slots are exactly the interface unknowns in order
        assert np.array_equal(
            fac.separator_local[fac.n_local_interface :],
            np.arange(ni, fe_matrix.shape[0]),
        )

    def test_split_join_roundtrip(self, fe_matrix, rng):
        fac = arms_factor(fe_matrix, fe_matrix.shape[0] - 20, group_size=10, seed=0)
        r = rng.random(fe_matrix.shape[0])
        f, g = fac.split(r)
        assert np.array_equal(fac.join(f, g), r)

    def test_flop_counters_positive(self, fe_matrix):
        fac = arms_factor(fe_matrix, fe_matrix.shape[0], group_size=10, seed=0)
        assert fac.solve_flops() > 0
        assert fac.forward_flops() > 0
        assert fac.back_flops() > 0

    def test_no_internal_unknowns_degenerates_gracefully(self):
        a = random_spd_csr(15, 0.3, 0)
        fac = arms_factor(a, 0, group_size=5, seed=0)
        assert fac.n_grouped == 0
        assert fac.n_expanded == 15
        r = np.ones(15)
        z = fac.solve(r)
        assert np.all(np.isfinite(z))

    def test_invalid_n_internal(self):
        a = random_spd_csr(10, 0.3, 1)
        with pytest.raises(ValueError):
            ArmsFactorization(a, 11)


class TestGroupBlockInversion:
    """The one-pass group-block inverse: edge shapes and breakdown reporting."""

    @staticmethod
    def _three_pairs(singular):
        # three uncoupled 2x2 internal groups {0,1}, {2,3}, {4,5} hanging off
        # one interface unknown; ``singular`` names the pair with a rank-1 block
        import scipy.sparse as sp

        a = sp.lil_matrix((7, 7))
        for g in range(3):
            i = 2 * g
            a[i:i + 2, i:i + 2] = (
                [[1.0, 2.0], [2.0, 4.0]] if g == singular else [[4.0, 1.0], [1.0, 3.0]]
            )
            a[i, 6] = a[6, i] = 0.5
        a[6, 6] = 5.0
        return sp.csr_matrix(a)

    def test_zero_groups(self):
        # no internal unknown may join a group: D is empty, S-hat is A itself
        a = random_spd_csr(12, 0.3, 1)
        fac = ArmsFactorization(a, n_internal=0)
        assert fac.n_grouped == 0 and fac.d_inv.shape == (0, 0)
        assert np.array_equal(fac.s_hat.toarray(), a.toarray())
        r = np.arange(1.0, 13.0)
        assert np.array_equal(fac.solve(r), fac.s_ilu.solve(r))

    def test_one_group(self):
        a = self._three_pairs(singular=None)[:3, :3].tocsr()  # {0,1} + one interface
        fac = ArmsFactorization(a, n_internal=2, group_size=4)
        assert len(fac.gis.groups) == 1 and fac.n_grouped == 2
        assert np.allclose(fac.d_inv.toarray(), np.linalg.inv(fac.D.toarray()))

    def test_inverse_matches_per_group_inversion_bitwise(self, fe_matrix):
        fac = arms_factor(fe_matrix, fe_matrix.shape[0], group_size=7, seed=3)
        ptr = fac.gis.group_ptr
        assert len(set(np.diff(ptr).tolist())) > 1  # several block sizes
        d, d_inv = fac.D.toarray(), fac.d_inv.toarray()
        for lo, hi in zip(ptr[:-1], ptr[1:]):
            assert np.array_equal(d_inv[lo:hi, lo:hi], np.linalg.inv(d[lo:hi, lo:hi]))
        assert fac.d_inv.nnz == np.count_nonzero(d_inv)  # exact zeros are not stored

    @pytest.mark.parametrize("singular", [0, 1, 2])
    def test_singular_group_block_is_named(self, singular):
        from repro.resilience.errors import FactorizationBreakdown

        a = self._three_pairs(singular)
        healthy = ArmsFactorization(self._three_pairs(None), n_internal=6, group_size=2)
        k = next(
            k for k, g in enumerate(healthy.gis.groups) if 2 * singular in g.tolist()
        )
        with pytest.raises(FactorizationBreakdown, match=f"group block {k} is singular") as exc:
            ArmsFactorization(a, n_internal=6, group_size=2, shift=0.0)
        assert exc.value.context["group"] == k
        assert exc.value.context["size"] == 2
