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
:class:`~repro.distributed.matrix.DistributedMatrix` idiom): everything here
is block-diagonal over ranks, so B, F, E, C, Ē and the (L_B, U_B) /
(L_S, U_S) pairs are stacked once at set-up and one S-matvec is three
products, one sweep and one exchange whatever P is — with the bits of the
per-rank loop, and its per-rank flops charged as a constant.  The inner
solves of steps 1 and 3 run in lockstep (:func:`~repro.krylov.fgmres_lockstep`,
the FGMRES cycle Block K's inner solves and the step-2 ``fgmres`` run too):
one stacked B product and one stacked (L_B, U_B) sweep per inner iteration
for all ranks, each rank with its own Hessenberg, its own dots on its own
slice and its own early exit.  The Schur blocks and both sweep stacks are
remembered beside the cached factors they come from
(:meth:`~repro.factor.cache.FactorCache.remember`), gstrs slots included.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.comm.communicator import Communicator
from repro.distributed.matrix import DistributedMatrix
from repro.distributed.ops import DistributedOps
from repro.factor.ilut import ilut
from repro.factor.schur_extract import SchurBlocks, schur_blocks, stacked_schur_solves
from repro.kernels.apply import csr_matvec, stack_csr
from repro.krylov.fgmres import fgmres, fgmres_lockstep
from repro.krylov.ops import CountingOps
from repro.perfmodel.costs import Charge
from repro.precond.base import ParallelPreconditioner
from repro.precond.block_jacobi import estimate_ilu_setup_flops
from repro.resilience.errors import InnerSolveDivergence


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

        factors = []
        self.schur_blocks: list[SchurBlocks] = []
        setup = np.zeros(comm.size)
        for r, sd in enumerate(self.pm.subdomains):
            fac = ilut(
                dmat.owned_square[r], drop_tol, fill,
                shift=shift, breakdown_frac=breakdown_frac,
            )
            factors.append(fac)
            self.schur_blocks.append(schur_blocks(fac, sd.n_internal))
            if fac.stats.floored_pivots:
                obs.event(
                    "factor.stats", rank=r, precond="schur1",
                    floored_pivots=fac.stats.floored_pivots, n=fac.stats.n,
                )
            setup[r] = estimate_ilu_setup_flops(fac)
        self._charge_setup(setup)

        self._ifc_layout = self.pm.interface_layout
        self._ifc_ops = DistributedOps(comm, self._ifc_layout)

        # the operators of all ranks, stacked
        blocks, sbs = dmat.blocks, self.schur_blocks
        with obs.span("setup.stack"):
            self._B = stack_csr([b.B for b in blocks])
            self._F = stack_csr([b.F for b in blocks])
            self._E = stack_csr([b.E for b in blocks])
            self._C = stack_csr([b.C for b in blocks])
            self._solve_b, self._solve_s = stacked_schur_solves(factors, sbs)
        self._coupled_rows = dmat.coupled_rows(self._ifc_layout)
        # where each rank's internal / interface unknowns sit in a distributed
        # vector, and where its internal ones sit in the stacked B system
        splits = [sd.n_internal for sd in self.pm.subdomains]
        ptr = self.pm.layout.rank_ptr
        self._internal = np.concatenate([np.empty(0, dtype=np.int64)] + [
            np.arange(lo, lo + n) for lo, n in zip(ptr, splits)
        ])
        self._interface = np.concatenate([np.empty(0, dtype=np.int64)] + [
            np.arange(lo + n, hi) for lo, n, hi in zip(ptr, splits, ptr[1:])
        ])
        self._b_ptr = np.concatenate(([0], np.cumsum(splits))).tolist()
        # ... and what the ranks are charged for them, product by product
        self._b_flops = [2.0 * b.B.nnz for b in blocks]
        self._lu_b_flops = [s.solve_b_flops() for s in sbs]
        self._e_flops = [2.0 * b.E.nnz for b in blocks]
        self._f_flops = [2.0 * b.F.nnz for b in blocks]
        self._matvec_charge = Charge(comm.size, [
            2.0 * (b.F.nnz + b.C.nnz + b.E.nnz + g.nnz) + s.solve_b_flops()
            for b, g, s in zip(blocks, dmat.ghost_coupling, sbs)
        ])
        self._precond_charge = Charge(comm.size, [s.solve_s_flops() for s in sbs])

    # -- subdomain-local approximate B solves (steps 1 and 3) ----------------

    def _solve_local(self, f: np.ndarray, counters: list[CountingOps]) -> np.ndarray:
        """B̃_i⁻¹ f_i on every rank: a few local GMRES iterations on B_i,
        (L_B, U_B)-preconditioned, all ranks in lockstep on the stacks."""

        def apply_a(v: np.ndarray, live: list[int]) -> np.ndarray:
            for r in live:
                counters[r].add(self._b_flops[r])
            return csr_matvec(self._B, v)

        def apply_m(v: np.ndarray, live: list[int]) -> np.ndarray:
            for r in live:
                counters[r].add(self._lu_b_flops[r])
            return self._solve_b.solve(v)

        u, results = fgmres_lockstep(
            apply_a, f, self._b_ptr, apply_m, counters,
            restart=self.local_iterations, rtol=1e-12, maxiter=self.local_iterations,
        )
        for rank, res in enumerate(results):
            if res.status == "diverged":
                raise InnerSolveDivergence(
                    "Schur 1 local B-block solve diverged",
                    rank=rank, where="schur1.local",
                    residual=float(res.final_residual),
                )
        return u

    # -- the distributed global Schur solve (step 2) --------------------------

    def _schur_matvec(self, y: np.ndarray) -> np.ndarray:
        """(S y)_i = C_i y_i − E_i B̃_i^{-1} F_i y_i + Σ_j E_ij y_j."""
        coupling = self.dmat.interface_coupling(self.comm, self._ifc_layout.split(y))
        # one ILU pass approximates every B_i^{-1}
        s = self._solve_b.solve(csr_matvec(self._F, y))
        out = csr_matvec(self._C, y) - csr_matvec(self._E, s)
        out[self._coupled_rows] += coupling
        self.comm.ledger.add_charge(self._matvec_charge)
        return out

    def _schur_precond(self, g: np.ndarray) -> np.ndarray:
        """Block Jacobi on S: independent (L_S, U_S) solves per subdomain."""
        out = self._solve_s.solve(g)
        self.comm.ledger.add_charge(self._precond_charge)
        return out

    def _solve_schur_system(self, ghat: np.ndarray) -> np.ndarray:
        with obs.span("schur.solve", iterations=self.global_iterations):
            res = fgmres(
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
        f = r[self._internal]

        # Step 1: ĝ_i = g_i − E_i B̃_i^{-1} f_i
        with obs.span("schur.forward"):
            counters = [CountingOps(max(sd.n_internal, 1)) for sd in self.pm.subdomains]
            w = self._solve_local(f, counters)
            ghat = r[self._interface] - csr_matvec(self._E, w)
            for counter, e_flops in zip(counters, self._e_flops):
                counter.add(e_flops)
            self.comm.ledger.add_phase(np.asarray([c.flops for c in counters]))

        # Step 2: solve S y = ĝ approximately (distributed GMRES)
        y = self._solve_schur_system(ghat)

        # Step 3: u_i = B̃_i^{-1} (f_i − F_i y_i)
        z = np.empty_like(r)
        with obs.span("schur.back"):
            counters = [CountingOps(max(sd.n_internal, 1)) for sd in self.pm.subdomains]
            rhs = f - csr_matvec(self._F, y)
            for counter, f_flops in zip(counters, self._f_flops):
                counter.add(f_flops)
            z[self._internal] = self._solve_local(rhs, counters)
            z[self._interface] = y
            self.comm.ledger.add_phase(np.asarray([c.flops for c in counters]))
        return z
