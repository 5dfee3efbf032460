import numpy as np
import pytest

from repro import CASE_BUILDERS, solve_case
from repro.comm.communicator import Communicator
from repro.krylov.fgmres import fgmres
from repro.precond.block_jacobi import BlockPreconditioner, block1, block2, block_krylov
from repro.resilience.errors import InnerSolveDivergence


def make(partitioned_poisson, factory):
    pm, dmat, rhs, exact = partitioned_poisson
    comm = Communicator(pm.num_ranks)
    return pm, dmat, rhs, exact, comm, factory(dmat, comm)


class TestBlockPreconditioners:
    def test_block1_accelerates_fgmres(self, partitioned_poisson):
        pm, dmat, rhs, exact, comm, M = make(partitioned_poisson, block1)
        bd = pm.to_distributed(rhs)
        plain = fgmres(lambda v: dmat.matvec(comm, v), bd, rtol=1e-8, maxiter=500)
        pre = fgmres(lambda v: dmat.matvec(comm, v), bd, apply_m=M.apply, rtol=1e-8, maxiter=500)
        assert pre.converged
        assert pre.iterations < 0.6 * plain.iterations

    def test_block2_converges_faster_than_block1(self, partitioned_poisson):
        pm, dmat, rhs, _, comm, M1 = make(partitioned_poisson, block1)
        M2 = block2(dmat, comm)
        bd = pm.to_distributed(rhs)
        r1 = fgmres(lambda v: dmat.matvec(comm, v), bd, apply_m=M1.apply, rtol=1e-6, maxiter=500)
        r2 = fgmres(lambda v: dmat.matvec(comm, v), bd, apply_m=M2.apply, rtol=1e-6, maxiter=500)
        assert r2.iterations <= r1.iterations

    def test_apply_is_block_diagonal_action(self, partitioned_poisson, rng):
        """z on rank r depends only on r's slice of the residual."""
        pm, dmat, _, _, comm, M = make(partitioned_poisson, block1)
        r = rng.random(pm.layout.total)
        z = M.apply(r)
        r2 = r.copy()
        other = pm.layout.local_slice(1)
        r2[other] = 0.0
        z2 = M.apply(r2)
        mine = pm.layout.local_slice(0)
        assert np.allclose(z[mine], z2[mine])

    def test_apply_charges_no_messages(self, partitioned_poisson, rng):
        """Block preconditioners are communication-free per application."""
        pm, dmat, _, _, comm, M = make(partitioned_poisson, block1)
        comm.reset_ledger()
        M.apply(rng.random(pm.layout.total))
        assert comm.ledger.total_msgs == 0
        assert comm.ledger.allreduces == 0
        assert comm.ledger.crit_flops > 0

    def test_single_apply_matches_local_ilu_solve(self, partitioned_poisson, rng):
        pm, dmat, _, _, comm, M = make(partitioned_poisson, block1)
        r = rng.random(pm.layout.total)
        z = M.apply(r)
        for rank in range(pm.num_ranks):
            loc = pm.layout.local_slice(rank)
            assert np.allclose(z[loc], M.factors[rank].solve(r[loc]))

    def test_block_krylov_variant_converges(self, partitioned_poisson):
        pm, dmat, rhs, _, comm, M = make(
            partitioned_poisson, lambda d, c: block_krylov(d, c, inner_iterations=3)
        )
        bd = pm.to_distributed(rhs)
        res = fgmres(lambda v: dmat.matvec(comm, v), bd, apply_m=M.apply, rtol=1e-6, maxiter=300)
        assert res.converged

    def test_block_krylov_rcm_preconditions_in_the_operators_order(
        self, partitioned_poisson, rng
    ):
        """The inner GMRES multiplies by the natural-order block, so the RCM
        factor has to be applied as Pᵀ(LU)⁻¹P: against a dense reference."""
        pm, dmat, _, _, comm, M = make(
            partitioned_poisson, lambda d, c: block_krylov(d, c, ordering="rcm")
        )
        r = rng.standard_normal(pm.layout.total)
        z = M.apply(r)
        for rank, (fac, perm) in enumerate(zip(M.factors, M.local_solver.perms)):
            assert perm is not None
            a = dmat.owned_square[rank].toarray()
            m_inv = np.zeros_like(a)
            m_inv[np.ix_(perm, perm)] = np.linalg.inv(fac.as_product().toarray())
            ref = fgmres(
                lambda v: a @ v, pm.layout.local(r, rank), apply_m=lambda v: m_inv @ v,
                restart=3, rtol=1e-12, maxiter=3,
            )
            assert np.allclose(pm.layout.local(z, rank), ref.x, rtol=1e-9, atol=1e-12)

    def test_block_krylov_rcm_iteration_count(self):
        """31 outer iterations while the factor was applied unpermuted."""
        case = CASE_BUILDERS["tc1"](17)
        counts = {
            ordering: solve_case(
                case, "blockk", nparts=4, seed=0, precond_params={"ordering": ordering}
            ).iterations
            for ordering in ("natural", "rcm")
        }
        assert counts == {"natural": 21, "rcm": 21}
        assert solve_case(case, "block2", nparts=4, seed=0).iterations == 21

    def test_setup_charged_to_ledger(self, partitioned_poisson):
        pm, dmat = partitioned_poisson[0], partitioned_poisson[1]
        comm = Communicator(pm.num_ranks)
        block2(dmat, comm)
        assert comm.ledger.crit_flops > 0

    def test_invalid_variant(self, partitioned_poisson):
        pm, dmat = partitioned_poisson[0], partitioned_poisson[1]
        with pytest.raises(ValueError):
            BlockPreconditioner(dmat, Communicator(pm.num_ranks), variant="nope")

    def test_block_krylov_refuses_fewer_than_one_inner_iteration(self):
        """Zero inner iterations made the preconditioner return zero: the
        outer solve 'stagnated' on [10.10, 10.10] instead of being refused,
        as Schur 1 refuses it."""
        case = CASE_BUILDERS["tc1"](17)
        with pytest.raises(ValueError, match="iteration counts must be >= 1"):
            solve_case(case, "blockk", nparts=4, precond_params={"inner_iterations": 0})

    def test_names_match_paper(self, partitioned_poisson):
        pm, dmat = partitioned_poisson[0], partitioned_poisson[1]
        comm = Communicator(pm.num_ranks)
        assert block1(dmat, comm).name == "Block 1"
        assert block2(dmat, comm).name == "Block 2"


def test_block_krylov_divergence_names_the_lowest_rank(partitioned_poisson):
    """Two ranks' inner solves go non-finite at different points — rank 2 at
    its first residual (a NaN in A_2), rank 1 only in the Hessenberg update
    (A_1 scaled by 1e300 overflows the first norm).  The apply raises for
    rank 1, the lower one, whichever diverged first, and charges nothing."""
    pm, dmat, rhs, _ = partitioned_poisson
    comm = Communicator(pm.num_ranks)
    M = block_krylov(dmat, comm)
    # the distribution's stack is shared and read-only: corrupt a copy
    M._a_hat = a = M._a_hat.copy()
    ptr = pm.layout.rank_ptr
    a.data[a.indptr[ptr[1]] : a.indptr[ptr[2]]] *= 1e300
    a.data[a.indptr[ptr[2]]] = np.nan
    before = (comm.ledger.counts(), comm.ledger.per_rank_flops.copy())
    with np.errstate(all="ignore"), pytest.raises(InnerSolveDivergence) as info:
        M.apply(pm.to_distributed(rhs))
    assert info.value.context["where"] == "blockk.local"
    assert info.value.context["rank"] == 1
    assert (comm.ledger.counts(), comm.ledger.per_rank_flops.tobytes()) == (
        before[0], before[1].tobytes()
    )
