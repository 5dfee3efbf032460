import numpy as np
import pytest

from repro.cases.poisson2d import poisson2d_case
from repro.comm.communicator import Communicator
from repro.core import stages
from repro.distributed.matrix import distribute_matrix
from repro.kernels import apply as apply_kernels
from repro.kernels.apply import stack_csr
from repro.krylov.fgmres import fgmres
from repro.precond.schur1 import Schur1Preconditioner
from repro.resilience.errors import InnerSolveDivergence
from repro.sparse import triangular


@pytest.fixture()
def setup(partitioned_poisson):
    pm, dmat, rhs, exact = partitioned_poisson
    comm = Communicator(pm.num_ranks)
    M = Schur1Preconditioner(dmat, comm)
    return pm, dmat, rhs, exact, comm, M


class TestSchur1:
    def test_converges_in_few_outer_iterations(self, setup):
        pm, dmat, rhs, exact, comm, M = setup
        bd = pm.to_distributed(rhs)
        res = fgmres(lambda v: dmat.matvec(comm, v), bd, apply_m=M.apply, rtol=1e-6, maxiter=100)
        assert res.converged
        assert res.iterations <= 15  # dramatically fewer than Block 1/2

    def test_solution_accuracy(self, setup):
        pm, dmat, rhs, exact, comm, M = setup
        bd = pm.to_distributed(rhs)
        res = fgmres(lambda v: dmat.matvec(comm, v), bd, apply_m=M.apply, rtol=1e-8, maxiter=100)
        x = pm.to_global(res.x)
        assert np.abs(x - exact).max() < 5e-4  # discretization level

    def test_apply_charges_messages_and_allreduces(self, setup):
        """The global Schur GMRES communicates: neighbor exchanges + dots."""
        pm, _, _, _, comm, M = setup
        comm.reset_ledger()
        rng = np.random.default_rng(0)
        M.apply(rng.random(pm.layout.total))
        assert comm.ledger.total_msgs > 0
        assert comm.ledger.allreduces > 0

    def test_interface_part_of_output_solves_schur_system(self, setup, rng):
        """After apply, z's interface block is the approximate Schur solution:
        applying M to A x* recovers x* approximately (quality check)."""
        pm, dmat, _, _, comm, M = setup
        x = rng.random(pm.layout.total)
        r = dmat.matvec(comm, x)
        z = M.apply(r)
        # M ≈ A^{-1}: relative error well below 1 (it is a strong precond)
        rel = np.linalg.norm(z - x) / np.linalg.norm(x)
        assert rel < 0.7

    def test_schur_matvec_consistency(self, setup, rng):
        """S y computed through the preconditioner's operator agrees with the
        algebraic definition using exact B solves (up to ILU inexactness)."""
        pm, dmat, _, _, comm, M = setup
        y = rng.random(pm.interface_layout.total)
        sy = M._schur_matvec(y)
        # reference: assemble the exact global Schur action
        import numpy.linalg as la

        ref = np.empty_like(sy)
        ghosts = {}
        for r, sd in enumerate(pm.subdomains):
            ghosts[r] = np.zeros(len(sd.ghost))
        owned = pm.interface_layout.split(y)
        from repro.comm.communicator import Communicator as C

        pm.interface_pattern.exchange(C(pm.num_ranks), owned, [ghosts[r] for r in range(pm.num_ranks)])
        for r, sd in enumerate(pm.subdomains):
            blocks = dmat.blocks[r]
            yi = owned[r]
            b_dense = blocks.B.toarray()
            s_exact = blocks.C @ yi - blocks.E @ la.solve(b_dense, blocks.F @ yi)
            if dmat.ghost_coupling[r].shape[1]:
                s_exact = s_exact + dmat.ghost_coupling[r] @ ghosts[r]
            pm.interface_layout.local(ref, r)[:] = s_exact
        rel = np.linalg.norm(sy - ref) / max(np.linalg.norm(ref), 1e-30)
        assert rel < 0.3

    def test_iteration_parameters_validated(self, partitioned_poisson):
        pm, dmat = partitioned_poisson[0], partitioned_poisson[1]
        with pytest.raises(ValueError):
            Schur1Preconditioner(dmat, Communicator(pm.num_ranks), global_iterations=0)

    def test_more_global_iterations_not_worse(self, partitioned_poisson):
        pm, dmat, rhs, _ = partitioned_poisson
        bd = pm.to_distributed(rhs)
        iters = []
        for n_glob in (2, 8):
            comm = Communicator(pm.num_ranks)
            M = Schur1Preconditioner(dmat, comm, global_iterations=n_glob)
            res = fgmres(
                lambda v: dmat.matvec(comm, v), bd, apply_m=M.apply, rtol=1e-6, maxiter=100
            )
            iters.append(res.iterations)
        assert iters[1] <= iters[0]

    def test_name(self, setup):
        assert setup[5].name == "Schur 1"


def test_local_divergence_names_the_lowest_rank(partitioned_poisson, poisson_system):
    """Two ranks' inner B-solves go non-finite at different points — rank 2
    at its first residual (a NaN in B_2), rank 1 only in the Hessenberg
    update (B_1 scaled by 1e300 overflows the first norm).  The apply raises for rank 1, the
    lower one, whichever diverged first, and charges nothing: the ledger
    reads as it did before the apply."""
    pm, _, rhs, _ = partitioned_poisson
    dmat = distribute_matrix(poisson_system[0], pm)  # a copy whose blocks may be spoiled
    dmat.blocks[1].B.data[:] *= 1e300
    dmat.blocks[2].B.data[0] = np.nan
    comm = Communicator(pm.num_ranks)
    M = Schur1Preconditioner(dmat, comm)
    before = (comm.ledger.counts(), comm.ledger.per_rank_flops.copy())
    with np.errstate(all="ignore"), pytest.raises(InnerSolveDivergence) as info:
        M.apply(pm.to_distributed(rhs))
    assert info.value.context["where"] == "schur1.local"
    assert info.value.context["rank"] == 1
    assert (comm.ledger.counts(), comm.ledger.per_rank_flops.tobytes()) == (
        before[0], before[1].tobytes()
    )


def test_a_warm_set_up_stacks_nothing(monkeypatch):
    """B, F, E and C are stacked once per distribution, the sweeps and
    their charges once per set of cached factors: a new distribution of
    warm factors stacks each of its operators exactly once (its Ē coupling
    at distribution), and a second set-up on it stacks nothing — with the
    charges of a cold one."""
    case = poisson2d_case(n=17)
    cold = Communicator(4)
    Schur1Preconditioner(stages.distribute(case, 4), cold)
    case.forget_distributions()

    calls = []

    def spy(blocks):
        calls.append([id(b) for b in blocks])
        return stack_csr(blocks)

    monkeypatch.setattr(apply_kernels, "stack_csr", spy)
    monkeypatch.setattr(triangular, "stack_csr", spy)
    dmat = stages.distribute(case, 4)
    Schur1Preconditioner(dmat, Communicator(4))
    blocks = dmat.blocks
    assert calls == [
        [id(g) for r, g in enumerate(dmat.ghost_coupling) if r in dmat.coupled_ranks],
        [id(b.B) for b in blocks], [id(b.F) for b in blocks],
        [id(b.E) for b in blocks], [id(b.C) for b in blocks],
    ]

    del calls[:]
    warm = Communicator(4)
    M = Schur1Preconditioner(dmat, warm)
    assert calls == []
    assert M._B is dmat.split_stacks[0].a
    assert warm.ledger.counts() == cold.ledger.counts()
    assert warm.ledger.per_rank_flops.tobytes() == cold.ledger.per_rank_flops.tobytes()
