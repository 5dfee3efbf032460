import sys
import threading

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.cases import (
    CASE_BUILDERS,
    convection2d_case,
    elasticity_ring_case,
    heat3d_case,
    poisson2d_case,
    poisson3d_case,
    poisson_unstructured_case,
)
from repro.cases.base import MEMBERSHIP_MEMO_SIZE

SMALL = {
    "tc1": lambda: poisson2d_case(n=17),
    "tc2": lambda: poisson3d_case(n=7),
    "tc3": lambda: poisson_unstructured_case(target_h=0.07),
    "tc4": lambda: heat3d_case(n=7),
    "tc5": lambda: convection2d_case(n=17),
    "tc6": lambda: elasticity_ring_case(n_theta=13, n_r=7),
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def case(request):
    return SMALL[request.param]()


class TestAllCases:
    def test_registry_complete(self):
        assert sorted(CASE_BUILDERS) == [
            "aniso", "lshape", "tc1", "tc2", "tc3", "tc4", "tc5", "tc6",
        ]

    def test_system_shapes_consistent(self, case):
        n = case.num_dofs
        assert case.matrix.shape == (n, n)
        assert case.rhs.shape == (n,)
        assert case.x0.shape == (n,)
        assert n == case.dofs_per_node * case.mesh.num_points

    def test_direct_solve_finite(self, case):
        x = spla.spsolve(case.matrix.tocsc(), case.rhs)
        assert np.all(np.isfinite(x))

    def test_exact_solution_when_given(self, case):
        if case.exact is None:
            return
        x = spla.spsolve(case.matrix.tocsc(), case.rhs)
        err = case.solution_error(x)
        assert err is not None and err < 0.05

    def test_x0_satisfies_dirichlet_rows(self, case):
        """Paper: zero initial guess except Dirichlet dofs.  On identity rows
        (Dirichlet) x0 must match the rhs."""
        a = case.matrix
        n = a.shape[0]
        for i in range(n):
            row = a.indices[a.indptr[i] : a.indptr[i + 1]]
            vals = a.data[a.indptr[i] : a.indptr[i + 1]]
            stored = {int(c): v for c, v in zip(row, vals)}
            if set(stored) == {i} and stored[i] == 1.0:
                assert case.x0[i] == pytest.approx(case.rhs[i])

    def test_membership_general_covers(self, case):
        mem = case.membership(4, seed=0)
        assert mem.shape == (case.num_dofs,)
        assert set(np.unique(mem)) <= set(range(4))

    def test_membership_vector_keeps_node_dofs_together(self, case):
        if case.dofs_per_node == 1:
            return
        mem = case.membership(4, seed=0)
        pairs = mem.reshape(-1, case.dofs_per_node)
        assert np.all(pairs[:, 0] == pairs[:, 1])

    def test_coupling_graph_covers_matrix_pattern(self, case):
        g = case.coupling_graph
        a = case.matrix
        n = a.shape[0]
        adj = [set(g.neighbors(v).tolist()) for v in range(n)]
        rows = np.repeat(np.arange(n), np.diff(a.indptr))
        off = rows != a.indices
        for i, j in zip(rows[off][:500], a.indices[off][:500]):
            assert int(j) in adj[int(i)]


class TestMembershipMemo:
    def test_membership_is_read_only(self, case):
        for seed in (0, None):
            mem = case.membership(3, seed=seed)
            assert not mem.flags.writeable
            with pytest.raises(ValueError):
                mem[0] = 1

    def test_int_seed_returns_the_remembered_array(self, case):
        first = case.membership(3, seed=5)
        assert case.membership(3, seed=5) is first
        assert case.membership(3, seed=6) is not first
        assert case.membership(3, seed=5, scheme="spectral") is not first
        assert np.array_equal(first, case.partition(3, seed=5))

    def test_unseeded_and_generator_calls_bypass_the_memo(self):
        case = SMALL["tc1"]()
        draws = [case.membership(4, seed=None) for _ in range(4)]
        # fresh entropy per call, as before the memo
        assert any(not np.array_equal(draws[0], d) for d in draws[1:])
        rng = np.random.default_rng(0)
        a, b = case.membership(4, seed=rng), case.membership(4, seed=rng)
        assert not np.array_equal(a, b)   # the generator moved on
        assert np.array_equal(a, case.membership(4, seed=0))
        assert list(case._memberships) == [(4, 0, "general")]

    def test_memo_is_bounded_and_drops_the_oldest(self):
        case = SMALL["tc1"]()
        first = case.membership(2, seed=0)
        for seed in range(1, MEMBERSHIP_MEMO_SIZE + 3):
            case.membership(2, seed=seed)
            assert len(case._memberships) <= MEMBERSHIP_MEMO_SIZE
        assert (2, 0, "general") not in case._memberships
        again = case.membership(2, seed=0)
        assert again is not first and np.array_equal(again, first)

    def test_failed_partition_is_not_remembered(self):
        case = SMALL["tc1"]()
        with pytest.raises(ValueError, match="nparts"):
            case.membership(case.mesh.num_points + 1, seed=0)
        assert not case._memberships

    def test_concurrent_callers_get_equal_arrays(self):
        """More threads than cores, a short switch interval, few keys and a
        memo that keeps evicting: no lost update, no torn eviction."""
        case = SMALL["tc1"]()
        expected = {seed: case.partition(4, seed=seed) for seed in range(MEMBERSHIP_MEMO_SIZE + 2)}
        errors, start = [], threading.Barrier(8)

        def worker(offset):
            try:
                start.wait(timeout=10)
                for i in range(40):
                    seed = (offset + i) % len(expected)
                    if not np.array_equal(case.membership(4, seed=seed), expected[seed]):
                        errors.append(seed)
                    if len(case._memberships) > MEMBERSHIP_MEMO_SIZE:
                        errors.append("bound")
            except Exception as exc:  # surfaced below, with the thread joined
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestCaseSpecifics:
    def test_tc1_exact_is_x_exp_y(self):
        c = SMALL["tc1"]()
        p = c.mesh.points
        assert np.allclose(c.exact, p[:, 0] * np.exp(p[:, 1]))

    def test_tc2_exact_is_x_exp_yz(self):
        c = SMALL["tc2"]()
        p = c.mesh.points
        assert np.allclose(c.exact, p[:, 0] * np.exp(p[:, 1] * p[:, 2]))

    def test_tc4_initial_guess_is_initial_condition(self):
        c = SMALL["tc4"]()
        p = c.mesh.points
        expected = np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        right = c.mesh.boundary_set("right")
        expected[right] = 0.0
        assert np.allclose(c.x0, expected)

    def test_tc5_matrix_unsymmetric(self):
        c = SMALL["tc5"]()
        assert abs(c.matrix - c.matrix.T).max() > 1.0

    def test_tc5_boundary_values(self):
        c = SMALL["tc5"]()
        x = spla.spsolve(c.matrix.tocsc(), c.rhs)
        pts = c.mesh.points
        left_high = c.mesh.boundary_set("left")
        left_high = left_high[pts[left_high, 1] > 0.25 + 1e-9]
        assert np.allclose(x[left_high], 1.0)
        bottom = c.mesh.boundary_set("bottom")
        assert np.allclose(x[bottom], 0.0)
        # solution bounded by BC values (upwinding keeps it nearly monotone)
        assert x.min() > -0.2 and x.max() < 1.2

    def test_tc5_discontinuity_transported_along_characteristic(self):
        """Fig. 4: the front lies on the line from (0, 1/4) at angle π/4."""
        c = convection2d_case(n=41)
        x = spla.spsolve(c.matrix.tocsc(), c.rhs)
        pts = c.mesh.points
        # sample a vertical slice at x = 0.5: the jump should be near y = 0.75
        on_slice = np.abs(pts[:, 0] - 0.5) < 1e-9
        ys = pts[on_slice, 1]
        vals = x[on_slice]
        order = np.argsort(ys)
        ys, vals = ys[order], vals[order]
        jump_at = ys[np.argmax(np.diff(vals))]
        assert abs(jump_at - 0.75) < 0.1

    def test_tc6_two_dofs_per_node(self):
        c = SMALL["tc6"]()
        assert c.dofs_per_node == 2
        assert c.num_dofs == 2 * c.mesh.num_points

    def test_tc6_symmetry_conditions_hold(self):
        c = SMALL["tc6"]()
        x = spla.spsolve(c.matrix.tocsc(), c.rhs)
        g1 = c.mesh.boundary_set("gamma1")
        g2 = c.mesh.boundary_set("gamma2")
        assert np.abs(x[2 * g1]).max() < 1e-12  # u1 = 0 on Γ1
        assert np.abs(x[2 * g2 + 1]).max() < 1e-12  # u2 = 0 on Γ2

    def test_tc3_mesh_unstructured(self):
        c = SMALL["tc3"]()
        assert c.mesh.structured_shape is None

    def test_box_membership_on_structured_cases(self):
        c1 = SMALL["tc1"]()
        mem = c1.membership(4, scheme="box")
        assert len(np.unique(mem)) == 4
        c3 = SMALL["tc3"]()
        with pytest.raises(ValueError):
            c3.membership(4, scheme="box")

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError):
            SMALL["tc1"]().membership(4, scheme="diagonal")
