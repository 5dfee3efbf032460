"""Additive Schwarz preconditioner with overlap (paper Sec. 5.2).

The paper contrasts the four algebraic preconditioners with a classical
overlapping additive Schwarz method: subdomains are *small rectangles* from a
simple geometric partitioning, extended by ~5% overlap per side; each
subdomain solve is one Conjugate Gradient iteration preconditioned by an
FFT-based fast Poisson solver; and convergence hinges on an optional coarse
grid correction (CGC) whose small system is solved directly.

    M⁻¹ = Σ_b R_bᵀ Ã_b⁻¹ R_b   (+ P A₀⁻¹ Pᵀ with CGC)

Only structured rectangle meshes are supported (this is what the paper runs
it on — Test Case 1).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.comm.communicator import Communicator
from repro.distributed.matrix import DistributedMatrix
from repro.graph.geometric import factor_processor_count
from repro.kernels.apply import csr_matvec
from repro.krylov.cg import cg
from repro.krylov.ops import CountingOps
from repro.mesh.mesh import Mesh
from repro.precond.base import ParallelPreconditioner
from repro.precond.coarse import CoarseGridCorrection
from repro.precond.fft_poisson import FFTPoissonSolver
from repro.utils.validation import ensure_csr


class _OverlappedBox:
    """One overlapping rectangular subdomain with its local solver."""

    def __init__(
        self,
        a_global: sp.csr_matrix,
        nx: int,
        ny: int,
        x_range: tuple[int, int],
        y_range: tuple[int, int],
        core_x: tuple[int, int],
        core_y: tuple[int, int],
    ) -> None:
        x0, x1 = x_range
        y0, y1 = y_range
        self.wx = x1 - x0
        self.wy = y1 - y0
        ix = np.arange(x0, x1)
        iy = np.arange(y0, y1)
        # x fastest inside the box, matching the lattice numbering
        self.ids = (iy[:, None] * nx + ix[None, :]).ravel()
        self.a_loc = ensure_csr(a_global[self.ids][:, self.ids])
        # FFT solver over the (wy, wx) C-ordered box data
        self.fft = FFTPoissonSolver(self.wy, self.wx)
        # core (non-overlapped) region mask inside the extended box — the
        # restriction RAS scatters through
        in_core_x = (ix >= core_x[0]) & (ix < core_x[1])
        in_core_y = (iy >= core_y[0]) & (iy < core_y[1])
        self.core_mask = (in_core_y[:, None] & in_core_x[None, :]).ravel()
        self.core_size = int(self.core_mask.sum())
        self.overlap_size = len(self.ids) - self.core_size

    def solve(self, rhs: np.ndarray, counter: CountingOps) -> np.ndarray:
        """One FFT-preconditioned CG iteration on the overlapped box."""

        def apply_a(v, a=self.a_loc, c=counter):
            c.add(2.0 * a.nnz)
            return csr_matvec(a, v)

        def apply_m(v, f=self.fft, c=counter):
            c.add(f.flops())
            return f.solve(v)

        res = cg(apply_a, rhs, apply_m=apply_m, rtol=1e-12, maxiter=1, ops=counter)
        return res.x


class AdditiveSchwarzPreconditioner(ParallelPreconditioner):
    """Overlapping additive Schwarz with optional coarse grid correction."""

    def __init__(
        self,
        dmat: DistributedMatrix,
        comm: Communicator,
        mesh: Mesh,
        a_global: sp.csr_matrix,
        *,
        overlap_frac: float = 0.05,
        coarse_shape: tuple[int, int] | None = None,
        restricted: bool = False,
    ) -> None:
        """``restricted=True`` selects Restricted Additive Schwarz (RAS,
        Cai & Sarkis): corrections are scattered only through each box's
        non-overlapped core, halving the exchange volume and typically
        converging faster than classical AS."""
        super().__init__(dmat, comm)
        if mesh.structured_shape is None or len(mesh.structured_shape) != 2:
            raise ValueError(
                "additive Schwarz requires a structured 2-D rectangle mesh"
            )
        if not 0.0 <= overlap_frac < 0.5:
            raise ValueError("overlap_frac must be in [0, 0.5)")
        a_global = ensure_csr(a_global)
        nx, ny = mesh.structured_shape
        if a_global.shape[0] != nx * ny:
            raise ValueError("matrix size does not match the structured mesh")
        base = "RAS" if restricted else "AS"
        self.name = f"{base}+CGC" if coarse_shape else base
        self.overlap_frac = overlap_frac
        self.restricted = restricted

        px, py = factor_processor_count(comm.size, 2)
        xb = np.linspace(0, nx, px + 1).astype(np.int64)
        yb = np.linspace(0, ny, py + 1).astype(np.int64)
        # box extraction and FFT-plan setup, one subdomain after another
        self.boxes: list[_OverlappedBox] = []
        for by in range(py):
            for bx in range(px):
                ox = max(1, int(round(overlap_frac * (xb[bx + 1] - xb[bx]))))
                oy = max(1, int(round(overlap_frac * (yb[by + 1] - yb[by]))))
                x0 = max(0, int(xb[bx]) - ox)
                x1 = min(nx, int(xb[bx + 1]) + ox)
                y0 = max(0, int(yb[by]) - oy)
                y1 = min(ny, int(yb[by + 1]) + oy)
                self.boxes.append(_OverlappedBox(
                    a_global, nx, ny, (x0, x1), (y0, y1),
                    core_x=(int(xb[bx]), int(xb[bx + 1])),
                    core_y=(int(yb[by]), int(yb[by + 1])),
                ))

        self.coarse = (
            CoarseGridCorrection(a_global, mesh.points, coarse_shape)
            if coarse_shape
            else None
        )
        # overlap data exchange cost: each box imports its overlap region
        # from the neighbors that own it (and symmetrically exports)
        self._msgs = np.asarray(
            [min(8.0, comm.size - 1.0) * 2.0 for _ in self.boxes]
        )
        # RAS only imports overlap data (no export of corrections back)
        per_point = 8.0 if restricted else 16.0
        self._bytes = np.asarray([per_point * b.overlap_size for b in self.boxes])
        # setup: FFT plans + coarse factorization (negligible vs. solve; charge
        # the coarse LU which is the real setup cost)
        if self.coarse is not None:
            n0 = self.coarse.n_coarse
            self._charge_setup(np.full(comm.size, 2.0 / 3.0 * n0**3))

    def apply(self, r: np.ndarray) -> np.ndarray:
        pm = self.pm
        r_glob = pm.to_global(r)
        z_glob = np.zeros_like(r_glob)
        flops = np.zeros(self.comm.size)
        with obs.span("schwarz.local_solves", restricted=self.restricted):
            for rank, box in enumerate(self.boxes):
                counter = CountingOps(len(box.ids))
                correction = box.solve(r_glob[box.ids], counter)
                if self.restricted:
                    # RAS: scatter through the non-overlapped core only
                    z_glob[box.ids[box.core_mask]] += correction[box.core_mask]
                else:
                    z_glob[box.ids] += correction
                flops[rank] = counter.flops
            self.comm.ledger.add_phase(
                flops, msgs_per_rank=self._msgs, bytes_per_rank=self._bytes
            )

        if self.coarse is not None:
            with obs.span("schwarz.coarse"):
                z_glob += self.coarse.apply(r_glob)
                # restriction/prolongation is local; the coarse rhs gather and
                # the redundant direct solve are charged on every rank
                self.comm.ledger.add_allreduce(nbytes=8.0 * self.coarse.n_coarse)
                obs.event("comm.allreduce", bytes=8.0 * self.coarse.n_coarse)
                self.comm.ledger.add_phase(self.coarse.flops())
        return pm.to_distributed(z_glob)
