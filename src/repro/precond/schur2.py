"""Schur 2: expanded Schur complement with ARMS subdomain solves.

Paper Sec. 2 & 4.4: on each subdomain a two-level ARMS reordering (group-
independent sets) produces the *expanded* Schur complement, coupling both the
local interfaces (between groups) and the interdomain interfaces.  The global
expanded Schur system is solved approximately by a few distributed GMRES
iterations preconditioned by a distributed ILU(0) — realized, as in parms,
as processor-local ILU(0) factors of the expanded Schur diagonal blocks
(off-processor rows are not exchanged during factorization).

Interdomain coupling inside the expanded system: the only expanded-interface
unknowns visible to neighbors are the interdomain-interface ones (group and
local-interface unknowns never couple across subdomains), so the Σ E_ij y_j
term reuses the interface exchange pattern, scattered into the trailing
(interdomain) slice of each expanded block.

Step 2 executes fused and is charged per rank, as in Schur 1: the Ŝ_i and
their ILU(0) pairs are stacked once at set-up, so one expanded matvec is two
products and one exchange, one ``block`` preconditioning one sweep.  The ARMS
cascades of steps 1 and 3 stay per rank (docs/performance.md §9).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.comm.communicator import Communicator
from repro.distributed.layout import Layout
from repro.distributed.matrix import DistributedMatrix
from repro.distributed.ops import DistributedOps
from repro.factor.arms import ArmsFactorization
from repro.kernels.apply import csr_matvec, stack_csr
from repro.krylov.fgmres import fgmres
from repro.precond.base import ParallelPreconditioner
from repro.resilience.errors import InnerSolveDivergence
from repro.sparse.triangular import FusedLU


class Schur2Preconditioner(ParallelPreconditioner):
    """The paper's "Schur 2" preconditioner."""

    name = "Schur 2"

    def __init__(
        self,
        dmat: DistributedMatrix,
        comm: Communicator,
        *,
        group_size: int = 20,
        drop_tol: float = 1e-4,
        global_iterations: int = 5,
        seed: int = 0,
        levels: int = 2,
        global_ilu: str = "block",
        shift: float = 0.0,
        breakdown_frac: float | None = 0.25,
    ) -> None:
        """``global_ilu`` selects the realization of the paper's "global
        ILU(0)" on the expanded Schur system:

        * ``"block"`` (default, the pARMS realization): each processor
          factors its own diagonal block Ŝ_i; off-processor couplings are
          not exchanged during factorization.  Fully parallel setup.
        * ``"global"``: a true ILU(0) of the assembled global expanded Schur
          matrix *including* the interdomain couplings.  Its triangular
          solves execute level-scheduled across subdomains (a pipelined
          sweep), which the cost model charges as one extra neighbor
          exchange per sweep.  Stronger, but with serialized setup.
        """
        super().__init__(dmat, comm)
        if global_iterations < 1:
            raise ValueError("global_iterations must be >= 1")
        if global_ilu not in ("block", "global"):
            raise ValueError(f"unknown global_ilu mode {global_ilu!r}")
        self.global_iterations = global_iterations
        self.global_ilu = global_ilu

        self.arms = [
            ArmsFactorization(
                dmat.owned_square[r],
                self.pm.subdomains[r].n_internal,
                group_size=group_size,
                drop_tol=drop_tol,
                seed=seed + r,
                levels=levels,
                shift=shift,
                breakdown_frac=breakdown_frac,
            )
            for r in range(comm.size)
        ]

        setup = np.zeros(comm.size)
        for r, (sd, fac) in enumerate(zip(self.pm.subdomains, self.arms)):
            if fac.final_n_interdomain != sd.n_interface:
                raise AssertionError(
                    "ARMS separator lost interdomain interface unknowns"
                )
            # setup: group dense factorizations + Schur formation + ILU(0)
            setup[r] = (
                sum(2.0 / 3.0 * s**3 for s in np.diff(fac.gis.group_ptr).tolist())
                + 4.0 * fac.s_hat.nnz
                + (0.0 if fac.s_ilu is None else 4.0 * fac.s_ilu.nnz)
            )
        self._charge_setup(setup)

        self._exp_layout = Layout.from_sizes([f.final_n_expanded for f in self.arms])
        self._exp_ops = DistributedOps(comm, self._exp_layout)

        # the expanded Schur operator of all ranks, stacked, and its cost
        finals = [f.final for f in self.arms]
        self._s_hat = stack_csr([f.s_hat for f in finals])
        self._coupled_rows = dmat.coupled_rows(self._exp_layout)
        # neighbors only ever see the interdomain-interface slice
        self._ifc_slices = [
            slice(s.stop - sd.n_interface, s.stop)
            for s, sd in zip(self._exp_layout.slices, self.pm.subdomains)
        ]
        self._matvec_flops = np.asarray([
            2.0 * (f.s_hat.nnz + g.nnz) for f, g in zip(finals, dmat.ghost_coupling)
        ])

        self._global_fac = None
        if global_ilu == "block":
            # an empty expanded block has no factor and nothing to solve
            ilus = [f.s_ilu for f in finals if f.s_ilu is not None]
            self._solve_s = FusedLU.stacked([f.L for f in ilus], [f.U for f in ilus])
            self._precond_flops = np.asarray([f.solve_s_flops() for f in finals])
        else:
            s_global = self._assemble_global_expanded()
            from repro.factor.ilu0 import ilu0 as _ilu0

            self._global_fac = _ilu0(s_global)
            # serialized factorization sweep: charged as a critical-path phase
            comm.ledger.add_phase(
                np.full(comm.size, 4.0 * s_global.nnz / comm.size),
                msgs_per_rank=2.0 * self.pm.interface_pattern.msgs_per_rank,
                bytes_per_rank=self.pm.interface_pattern.bytes_per_rank,
            )
            rows_per_rank = self._exp_layout.sizes
            total_nnz = self._global_fac.nnz
            self._global_solve_flops = (
                2.0 * total_nnz * rows_per_rank / max(self._exp_layout.total, 1)
            )

    def _assemble_global_expanded(self):
        """The global expanded Schur matrix: diagonal blocks Ŝ_i plus the
        interdomain couplings Ē mapped onto neighbors' expanded indices."""
        import scipy.sparse as sp

        pm = self.pm
        offsets = self._exp_layout.rank_ptr
        rows_all, cols_all, vals_all = [], [], []
        # expanded index of each global interface point
        n_points = pm.membership.shape[0]
        exp_index_of_global = np.full(n_points, -1, dtype=np.int64)
        for q, sd in enumerate(pm.subdomains):
            ifc = sd.interface_global
            base = offsets[q] + self.arms[q].final_n_local_interface
            exp_index_of_global[ifc] = base + np.arange(len(ifc))
        for r in range(self.comm.size):
            fac = self.arms[r]
            s = fac.final_s_hat.tocoo()
            rows_all.append(offsets[r] + s.row)
            cols_all.append(offsets[r] + s.col)
            vals_all.append(s.data)
            ghost_mat = self.dmat.ghost_coupling[r].tocoo()
            if ghost_mat.nnz:
                sd = pm.subdomains[r]
                rows_all.append(
                    offsets[r] + fac.final_n_local_interface + ghost_mat.row
                )
                cols_all.append(exp_index_of_global[sd.ghost[ghost_mat.col]])
                vals_all.append(ghost_mat.data)
        n = self._exp_layout.total
        s_global = sp.coo_matrix(
            (
                np.concatenate(vals_all),
                (np.concatenate(rows_all), np.concatenate(cols_all)),
            ),
            shape=(n, n),
        ).tocsr()
        s_global.sum_duplicates()
        return s_global

    # -- global expanded Schur operator ---------------------------------------

    def _expanded_matvec(self, y: np.ndarray) -> np.ndarray:
        """(Ŝ y)_i = Ŝ_i y_i + Σ_j E_ij y_j (interdomain rows only)."""
        coupling = self.dmat.interface_coupling(
            self.comm, [y[s] for s in self._ifc_slices]
        )
        out = csr_matvec(self._s_hat, y)
        out[self._coupled_rows] += coupling
        self.comm.ledger.add_phase(self._matvec_flops)
        return out

    def _expanded_precond(self, g: np.ndarray) -> np.ndarray:
        """Distributed ILU(0) on the expanded Schur system."""
        if self._global_fac is not None:
            # true global ILU(0): level-scheduled sweeps pipeline across
            # subdomains — one neighbor exchange per triangular sweep
            z = self._global_fac.solve(g)
            pat = self.pm.interface_pattern
            self.comm.ledger.add_phase(
                self._global_solve_flops,
                msgs_per_rank=2.0 * pat.msgs_per_rank,
                bytes_per_rank=2.0 * pat.bytes_per_rank,
            )
            return z
        out = self._solve_s.solve(g)
        self.comm.ledger.add_phase(self._precond_flops)
        return out

    def _solve_expanded_system(self, ghat: np.ndarray) -> np.ndarray:
        with obs.span("schur.solve", iterations=self.global_iterations):
            res = fgmres(
                self._expanded_matvec,
                ghat,
                apply_m=self._expanded_precond,
                restart=self.global_iterations,
                rtol=1e-12,
                maxiter=self.global_iterations,
                ops=self._exp_ops,
            )
        if res.status == "diverged":
            raise InnerSolveDivergence(
                "Schur 2 global expanded-interface solve diverged",
                where="schur2.global",
                residual=float(res.final_residual),
            )
        return res.x

    # -- Algorithm 2.1, expanded variant ----------------------------------------

    def apply(self, r: np.ndarray) -> np.ndarray:
        pm = self.pm
        ghat = np.empty(self._exp_layout.total)
        f_parts: list[list[np.ndarray]] = []
        flops = np.zeros(self.comm.size)

        # Step 1: exact group elimination ĝ_i = g_i − Ẽ_i D_i^{-1} f_i
        with obs.span("schur.forward"):
            for rank in range(self.comm.size):
                fac = self.arms[rank]
                f_stack, g_i = fac.forward_eliminate_full(pm.layout.local(r, rank))
                f_parts.append(f_stack)
                self._exp_layout.local(ghat, rank)[:] = g_i
                flops[rank] = fac.forward_full_flops()
            self.comm.ledger.add_phase(flops)

        # Step 2: distributed GMRES on the global expanded Schur system
        y = self._solve_expanded_system(ghat)

        # Step 3: back substitution u_i = D_i^{-1}(f_i − F̃_i y_i)
        z = np.empty_like(r)
        flops = np.zeros(self.comm.size)
        with obs.span("schur.back"):
            for rank in range(self.comm.size):
                fac = self.arms[rank]
                y_i = self._exp_layout.local(y, rank)
                pm.layout.local(z, rank)[:] = fac.back_substitute_full(
                    f_parts[rank], y_i
                )
                flops[rank] = fac.back_full_flops()
            self.comm.ledger.add_phase(flops)
        return z
