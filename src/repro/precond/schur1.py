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
(L_S, U_S) pairs are stacked and one S-matvec is three
products, one sweep and one exchange whatever P is — with the bits of the
per-rank loop, and its per-rank flops charged as a constant.  The inner
solves of steps 1 and 3 run in lockstep through
:func:`~repro.precond.base.inner_solve`, the one inner solve Block K's
subdomain solves and the step-2 interface solve call too:
one stacked B product and one stacked (L_B, U_B) sweep per inner iteration
for all ranks, each rank with its own Hessenberg, its own dots on its own
slice and its own early exit.  B, F, E and C are stacked once per
distribution (:attr:`~repro.distributed.matrix.DistributedMatrix.split_stacks`);
the Schur blocks, both sweep stacks and their charges are remembered beside
the cached factors they come from
(:meth:`~repro.factor.cache.FactorCache.remember`), gstrs slots included, so
a warm set-up stacks nothing.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro import obs
from repro.comm.communicator import Communicator
from repro.distributed.matrix import DistributedMatrix
from repro.distributed.ops import DistributedOps
from repro.factor.ilut import ilut
from repro.factor.schur_extract import (
    SchurBlocks,
    schur_blocks,
    schur_charges,
    stacked_schur_solves,
)
from repro.kernels.apply import csr_matvec
from repro.krylov.ops import CountingOps
from repro.precond.base import ParallelPreconditioner, charged, inner_solve


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

        self._ifc_layout = self.pm.interface_layout
        self._ifc_ops = DistributedOps(comm, self._ifc_layout)

        # the operators of all ranks, stacked: B, F, E and C once per
        # distribution, the (L_B, U_B) / (L_S, U_S) sweeps beside the factors
        with obs.span("setup.stack"):
            B, F, E, C = dmat.split_stacks
            self._solve_b, self._solve_s = stacked_schur_solves(factors, self.schur_blocks)
        self._B, self._F, self._E, self._C = B.a, F.a, E.a, C.a
        self._coupled_rows = dmat.interface_coupled_rows
        # where each rank's internal / interface unknowns sit in a distributed
        # vector, and where its internal ones sit in the stacked B system
        self._internal, self._interface, self._b_ptr = dmat.split_rows
        # ... and what the ranks are charged for them, product by product
        self._b_flops, self._e_flops, self._f_flops = B.flops, E.flops, F.flops
        # 2·nnz(F + C + E + Ē) per rank: integers below 2**53, so summing
        # the per-block flops is exact
        products = tuple(
            f + c + e + 2.0 * g.nnz
            for f, c, e, g in zip(F.flops, C.flops, E.flops, dmat.ghost_coupling)
        )
        charges = schur_charges(factors, self.schur_blocks, products)
        self._lu_b_flops = charges.solve_b_flops
        self._matvec_charge, self._precond_charge = charges.matvec, charges.solve_s
        comm.ledger.add_charge(charges.setup)

    # -- subdomain-local approximate B solves (steps 1 and 3) ----------------

    def _solve_local(self, f: np.ndarray, counters: list[CountingOps]) -> np.ndarray:
        """B̃_i⁻¹ f_i on every rank: a few local GMRES iterations on B_i,
        (L_B, U_B)-preconditioned, all ranks in lockstep on the stacks."""
        return inner_solve(
            charged(partial(csr_matvec, self._B), self._b_flops, counters), f,
            self._b_ptr, charged(self._solve_b.solve, self._lu_b_flops, counters),
            counters, self.local_iterations,
            "Schur 1 local B-block solve diverged", "schur1.local",
        )

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
            return inner_solve(
                lambda v, live: self._schur_matvec(v), ghat, [0, len(ghat)],
                lambda v, live: self._schur_precond(v), [self._ifc_ops],
                self.global_iterations,
                "Schur 1 global interface solve diverged", "schur1.global",
            )

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
