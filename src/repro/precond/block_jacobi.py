"""Simple parallel block preconditioners (paper Sec. 2, "Block 1"/"Block 2").

Each subdomain updates its local solution independently by solving a local
system with its subdomain matrix A_i (the owned square block): perfectly
parallel, zero communication per application — which is why the paper finds
their per-iteration scalability excellent even when their convergence is
poor.  Three subdomain solvers are provided:

* ILU(0) backward-forward substitution → **Block 1**
* ILUT(τ,p) backward-forward substitution → **Block 2**
* a few ILUT-preconditioned local GMRES iterations → the "local
  (preconditioned) Krylov solver" variant the paper mentions.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.comm.communicator import Communicator
from repro.distributed.matrix import DistributedMatrix
from repro.factor.base import ILUFactorization, solve_permuted
from repro.graph.adjacency import graph_from_matrix
from repro.graph.rcm import reverse_cuthill_mckee
from repro.kernels.apply import csr_matvec
from repro.krylov.fgmres import fgmres
from repro.krylov.ops import CountingOps
from repro.precond.base import ParallelPreconditioner
from repro.precond.local import LocalSolver
from repro.resilience.errors import InnerSolveDivergence
from repro.sparse.reorder import apply_symmetric_permutation


def estimate_ilu_setup_flops(fac: ILUFactorization) -> float:
    """Rough factorization cost: each L entry triggers one U-row update."""
    avg_u_row = fac.u_upper.nnz / max(fac.n, 1)
    return 2.0 * fac.l_strict.nnz * avg_u_row + 2.0 * fac.nnz


class BlockPreconditioner(ParallelPreconditioner):
    """Block Jacobi over subdomains with a pluggable local solver."""

    def __init__(
        self,
        dmat: DistributedMatrix,
        comm: Communicator,
        *,
        variant: str = "ilu0",
        drop_tol: float = 1e-3,
        fill: int = 10,
        inner_iterations: int = 3,
        ordering: str = "natural",
        shift: float = 0.0,
        breakdown_frac: float | None = 0.25,
    ) -> None:
        """``variant``: "ilu0" (Block 1), "ilut" (Block 2), or "krylov".

        ``ordering``: "natural" keeps the [internal; interface] numbering;
        "rcm" factors each subdomain in reverse Cuthill–McKee order
        (bandwidth-reducing — a fixed-fill ILUT captures more of the true
        factors; ablation bench A7).

        ``shift`` factors A_i + shift·I (post-breakdown remedy);
        ``breakdown_frac`` bounds the tolerated floored-pivot fraction per
        subdomain before :class:`FactorizationBreakdown` is raised.
        """
        super().__init__(dmat, comm)
        if variant not in ("ilu0", "ilut", "krylov"):
            raise ValueError(f"unknown variant {variant!r}")
        if ordering not in ("natural", "rcm"):
            raise ValueError(f"unknown ordering {ordering!r}")
        self.variant = variant
        self.ordering = ordering
        self.inner_iterations = inner_iterations
        self.name = {"ilu0": "Block 1", "ilut": "Block 2", "krylov": "Block K"}[variant]
        if ordering == "rcm":
            self.name += " (RCM)"

        alg = "ilu0" if variant == "ilu0" else "ilut"
        params = (
            (float(shift),) if alg == "ilu0"
            else (float(drop_tol), int(fill), float(shift))
        )
        perms: list[np.ndarray | None] = []
        blocks: list[sp.csr_matrix] = []
        for a_own in dmat.owned_square:
            perm = None
            if ordering == "rcm" and a_own.shape[0] > 1:
                perm = reverse_cuthill_mckee(graph_from_matrix(a_own))
                a_own = apply_symmetric_permutation(a_own, perm)
            perms.append(perm)
            blocks.append(a_own)

        # where the factorizations and the triangular solves run is the
        # seam's business; what is left here is algebra
        self.local_solver = LocalSolver(
            comm, blocks, perms, alg, params, breakdown_frac
        )
        self.where = self.local_solver.where
        self.factors = self.local_solver.factors
        setup = np.zeros(comm.size)
        for r, fac in enumerate(self.factors):
            if fac.stats.floored_pivots:
                obs.event(
                    "factor.stats", rank=r, precond=variant,
                    floored_pivots=fac.stats.floored_pivots, n=fac.stats.n,
                )
            setup[r] = estimate_ilu_setup_flops(fac)
        self._charge_setup(setup)
        self._apply_flops = np.asarray([f.solve_flops() for f in self.factors])

    def apply(self, r: np.ndarray) -> np.ndarray:
        if self.variant == "krylov":
            # a few ILUT-preconditioned GMRES iterations per subdomain
            return self._apply_krylov(r)
        with obs.span("block.local_solves", variant=self.variant):
            z = self.local_solver.solve(self.pm.layout, r)
            self.comm.ledger.add_phase(self._apply_flops)
        return z

    def _apply_krylov(self, r: np.ndarray) -> np.ndarray:
        z = np.empty_like(r)
        flops = np.zeros(self.comm.size)
        with obs.span("block.local_solves", variant=self.variant):
            for rank in range(self.comm.size):
                loc = self.pm.layout.local_slice(rank)
                a_own = self.dmat.owned_square[rank]
                fac, perm = self.factors[rank], self.local_solver.perms[rank]
                counter = CountingOps(a_own.shape[0])

                def apply_a(v, a=a_own, c=counter):
                    c.add(2.0 * a.nnz)
                    return csr_matvec(a, v)

                # the operator is in natural order, the factor in ``perm`` order
                def apply_m(v, f=fac, p=perm, c=counter):
                    c.add(f.solve_flops())
                    return solve_permuted(f, p, v)

                res = fgmres(
                    apply_a,
                    r[loc],
                    apply_m=apply_m,
                    restart=max(self.inner_iterations, 1),
                    rtol=1e-12,
                    maxiter=self.inner_iterations,
                    ops=counter,
                )
                if res.status == "diverged":
                    raise InnerSolveDivergence(
                        "Block K local Krylov solve diverged",
                        rank=rank, where="blockk.local",
                        residual=float(res.final_residual),
                    )
                z[loc] = res.x
                flops[rank] = counter.flops
            self.comm.ledger.add_phase(flops)
        return z


def block1(
    dmat: DistributedMatrix, comm: Communicator, **params
) -> BlockPreconditioner:
    """Block 1: block Jacobi with ILU(0) subdomain solves."""
    return BlockPreconditioner(dmat, comm, variant="ilu0", **params)


def block2(
    dmat: DistributedMatrix,
    comm: Communicator,
    drop_tol: float = 1e-3,
    fill: int = 10,
    ordering: str = "natural",
    **params,
) -> BlockPreconditioner:
    """Block 2: block Jacobi with ILUT(τ,p) subdomain solves."""
    return BlockPreconditioner(
        dmat, comm, variant="ilut", drop_tol=drop_tol, fill=fill,
        ordering=ordering, **params,
    )


def block_krylov(
    dmat: DistributedMatrix,
    comm: Communicator,
    inner_iterations: int = 3,
    drop_tol: float = 1e-3,
    fill: int = 10,
    **params,
) -> BlockPreconditioner:
    """Block preconditioner with local preconditioned-GMRES subdomain solves."""
    return BlockPreconditioner(
        dmat,
        comm,
        variant="krylov",
        drop_tol=drop_tol,
        fill=fill,
        inner_iterations=inner_iterations,
        **params,
    )
