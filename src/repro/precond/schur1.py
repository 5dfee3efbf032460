"""Schur 1: Schur-complement enhanced preconditioner (paper Sec. 2 & 4.4).

Algorithm 2.1 with the following realizations:

* One ILUT factorization of each [internal; interface]-ordered subdomain
  matrix A_i supplies both the B_i solver (leading blocks L_B, U_B) and the
  local Schur solver (trailing blocks L_S, U_S ≈ factors of S_i).
* Steps 1 and 3 (the B_i solves) run a few *local* GMRES iterations on B_i
  preconditioned by (L_B, U_B) — purely subdomain-local work.
* Step 2 solves the global interface system S y = ĝ with a few *distributed*
  GMRES iterations preconditioned by block Jacobi, whose blocks are the
  (L_S, U_S) solves.  The S-matvec needs one approximate B_i solve
  (the ILU forward/backward pass) plus a neighbor exchange of interface
  values for the Σ E_ij y_j coupling of Eq. (5)/(8).

Inner iteration counts vary the operator, so the outer accelerator must be
FGMRES.

Execution is fused, cost is per rank (the
:class:`~repro.distributed.matrix.DistributedMatrix` idiom): the step-2
operator and its preconditioner are block-diagonal over ranks, so F, E, C, Ē
and the (L_B, U_B) / (L_S, U_S) pairs are stacked once at set-up and one
S-matvec is three products, one sweep and one exchange whatever P is — with
the bits of the per-rank loop, and its per-rank flops charged as a constant.
Steps 1 and 3 stay one inner FGMRES per rank: their iterations stop rank by
rank (docs/performance.md §9).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.comm.communicator import Communicator
from repro.distributed.matrix import DistributedMatrix
from repro.distributed.ops import DistributedOps
from repro.factor.ilut import ilut
from repro.factor.schur_extract import SchurBlocks, extract_schur_blocks
from repro.kernels.apply import csr_matvec, stack_csr
from repro.krylov.fgmres import fgmres
from repro.krylov.gmres import gmres
from repro.krylov.ops import CountingOps
from repro.precond.base import ParallelPreconditioner
from repro.precond.block_jacobi import estimate_ilu_setup_flops
from repro.resilience.errors import InnerSolveDivergence
from repro.sparse.triangular import FusedLU


class Schur1Preconditioner(ParallelPreconditioner):
    """The paper's "Schur 1" preconditioner."""

    name = "Schur 1"

    def __init__(
        self,
        dmat: DistributedMatrix,
        comm: Communicator,
        *,
        drop_tol: float = 1e-3,
        fill: int = 10,
        global_iterations: int = 5,
        local_iterations: int = 3,
        shift: float = 0.0,
        breakdown_frac: float | None = 0.25,
    ) -> None:
        super().__init__(dmat, comm)
        if global_iterations < 1 or local_iterations < 1:
            raise ValueError("iteration counts must be >= 1")
        self.global_iterations = global_iterations
        self.local_iterations = local_iterations

        self.schur_blocks: list[SchurBlocks] = []
        setup = np.zeros(comm.size)
        for r, sd in enumerate(self.pm.subdomains):
            fac = ilut(
                dmat.owned_square[r], drop_tol, fill,
                shift=shift, breakdown_frac=breakdown_frac,
            )
            self.schur_blocks.append(extract_schur_blocks(fac, sd.n_internal))
            if fac.stats.floored_pivots:
                obs.event(
                    "factor.stats", rank=r, precond="schur1",
                    floored_pivots=fac.stats.floored_pivots, n=fac.stats.n,
                )
            setup[r] = estimate_ilu_setup_flops(fac)
        self._charge_setup(setup)

        self._ifc_layout = self.pm.interface_layout
        self._ifc_ops = DistributedOps(comm, self._ifc_layout)

        # the step-2 operators of all ranks, stacked
        blocks, sbs = dmat.blocks, self.schur_blocks
        self._F = stack_csr([b.F for b in blocks])
        self._E = stack_csr([b.E for b in blocks])
        self._C = stack_csr([b.C for b in blocks])
        self._solve_b = FusedLU.stacked([s.LB for s in sbs], [s.UB for s in sbs])
        self._solve_s = FusedLU.stacked([s.LS for s in sbs], [s.US for s in sbs])
        self._coupled_rows = dmat.coupled_rows(self._ifc_layout)
        # ... and what the ranks are charged for them, product by product
        self._b_flops = [2.0 * b.B.nnz for b in blocks]
        self._e_flops = [2.0 * b.E.nnz for b in blocks]
        self._f_flops = [2.0 * b.F.nnz for b in blocks]
        self._matvec_flops = np.asarray([
            2.0 * (b.F.nnz + b.C.nnz + b.E.nnz + g.nnz) + s.solve_b_flops()
            for b, g, s in zip(blocks, dmat.ghost_coupling, sbs)
        ])
        self._precond_flops = np.asarray([s.solve_s_flops() for s in sbs])

    # -- subdomain-local approximate B solve (steps 1 and 3) -----------------

    def _solve_b_gmres(self, rank: int, f: np.ndarray, counter: CountingOps) -> np.ndarray:
        """A few local GMRES iterations on B_i, ILUT-block preconditioned."""
        blocks = self.dmat.blocks[rank]
        sb = self.schur_blocks[rank]
        b_mat = blocks.B
        if b_mat.shape[0] == 0:
            return np.empty(0)

        a_flops, m_flops = self._b_flops[rank], sb.solve_b_flops()

        def apply_a(v):
            counter.add(a_flops)
            return csr_matvec(b_mat, v)

        def apply_m(v):
            counter.add(m_flops)
            return sb.solve_b(v)

        res = fgmres(
            apply_a,
            f,
            apply_m=apply_m,
            restart=self.local_iterations,
            rtol=1e-12,
            maxiter=self.local_iterations,
            ops=counter,
        )
        if res.status == "diverged":
            raise InnerSolveDivergence(
                "Schur 1 local B-block solve diverged",
                rank=rank, where="schur1.local",
                residual=float(res.final_residual),
            )
        return res.x

    # -- the distributed global Schur solve (step 2) --------------------------

    def _schur_matvec(self, y: np.ndarray) -> np.ndarray:
        """(S y)_i = C_i y_i − E_i B̃_i^{-1} F_i y_i + Σ_j E_ij y_j."""
        coupling = self.dmat.interface_coupling(self.comm, self._ifc_layout.split(y))
        # one ILU pass approximates every B_i^{-1}
        s = self._solve_b.solve(csr_matvec(self._F, y))
        out = csr_matvec(self._C, y) - csr_matvec(self._E, s)
        out[self._coupled_rows] += coupling
        self.comm.ledger.add_phase(self._matvec_flops)
        return out

    def _schur_precond(self, g: np.ndarray) -> np.ndarray:
        """Block Jacobi on S: independent (L_S, U_S) solves per subdomain."""
        out = self._solve_s.solve(g)
        self.comm.ledger.add_phase(self._precond_flops)
        return out

    def _solve_schur_system(self, ghat: np.ndarray) -> np.ndarray:
        with obs.span("schur.solve", iterations=self.global_iterations):
            res = gmres(
                self._schur_matvec,
                ghat,
                apply_m=self._schur_precond,
                restart=self.global_iterations,
                rtol=1e-12,
                maxiter=self.global_iterations,
                ops=self._ifc_ops,
            )
        if res.status == "diverged":
            raise InnerSolveDivergence(
                "Schur 1 global interface solve diverged",
                where="schur1.global",
                residual=float(res.final_residual),
            )
        return res.x

    # -- Algorithm 2.1 ---------------------------------------------------------

    def apply(self, r: np.ndarray) -> np.ndarray:
        pm = self.pm
        n_ifc = self._ifc_layout.total
        ghat = np.empty(n_ifc)
        f_parts: list[np.ndarray] = []
        flops = np.zeros(self.comm.size)

        # Step 1: ĝ_i = g_i − E_i B̃_i^{-1} f_i
        with obs.span("schur.forward"):
            for rank, sd in enumerate(pm.subdomains):
                loc = pm.layout.local(r, rank)
                f_i, g_i = loc[: sd.n_internal], loc[sd.n_internal :]
                f_parts.append(f_i)
                counter = CountingOps(max(sd.n_internal, 1))
                w = self._solve_b_gmres(rank, f_i, counter)
                e_mat = self.dmat.blocks[rank].E
                self._ifc_layout.local(ghat, rank)[:] = g_i - csr_matvec(e_mat, w)
                counter.add(self._e_flops[rank])
                flops[rank] = counter.flops
            self.comm.ledger.add_phase(flops)

        # Step 2: solve S y = ĝ approximately (distributed GMRES)
        y = self._solve_schur_system(ghat)

        # Step 3: u_i = B̃_i^{-1} (f_i − F_i y_i)
        z = np.empty_like(r)
        flops = np.zeros(self.comm.size)
        with obs.span("schur.back"):
            for rank, sd in enumerate(pm.subdomains):
                y_i = self._ifc_layout.local(y, rank)
                counter = CountingOps(max(sd.n_internal, 1))
                rhs = f_parts[rank] - csr_matvec(self.dmat.blocks[rank].F, y_i)
                counter.add(self._f_flops[rank])
                u_i = self._solve_b_gmres(rank, rhs, counter)
                loc = pm.layout.local(z, rank)
                loc[: sd.n_internal] = u_i
                loc[sd.n_internal :] = y_i
                flops[rank] = counter.flops
            self.comm.ledger.add_phase(flops)
        return z
