"""Chebyshev polynomial preconditioner.

The communication-minimal baseline: M⁻¹ = p_k(A) needs only matvecs, so a
parallel application costs exactly k distributed matvecs and *zero* extra
synchronization (no dots, no factor solves) — the opposite end of the
communication/strength spectrum from the Schur preconditioners.  Chebyshev
coefficients need an eigenvalue interval [λ_min, λ_max], estimated here with
the Lanczos diagnostic.  SPD operators only.
"""

from __future__ import annotations

import numpy as np

from repro.comm.communicator import Communicator
from repro.distributed.matrix import DistributedMatrix
from repro.krylov.spectra import lanczos_extremes
from repro.perfmodel.costs import Charge
from repro.precond.base import ParallelPreconditioner


class ChebyshevPreconditioner(ParallelPreconditioner):
    """k-step Chebyshev iteration as a (fixed, linear) preconditioner."""

    def __init__(
        self,
        dmat: DistributedMatrix,
        comm: Communicator,
        *,
        degree: int = 8,
        interval: tuple[float, float] | None = None,
        lanczos_steps: int = 30,
        boost: float = 1.1,
    ) -> None:
        """``interval`` overrides the Lanczos [λ_min, λ_max] estimate; the
        upper end is multiplied by ``boost`` for safety (Chebyshev diverges
        if eigenvalues fall outside the interval)."""
        super().__init__(dmat, comm)
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.name = f"Cheb({degree})"

        if interval is None:
            n = dmat.shape[0]
            probe_comm = Communicator(comm.size)  # estimate cost not charged twice

            lmin, lmax = lanczos_extremes(
                lambda v: dmat.matvec(probe_comm, v), n, steps=min(lanczos_steps, n),
                seed=0,
            )
            # Lanczos underestimates extreme separation on few steps: pad both
            lmin = max(lmin * 0.5, 1e-12)
            lmax = lmax * boost
            # charge the estimation matvecs as setup
            comm.ledger.merge(probe_comm.ledger)
        else:
            lmin, lmax = interval
        if not 0 < lmin < lmax:
            raise ValueError("need 0 < lambda_min < lambda_max (SPD operators only)")
        self.lmin, self.lmax = float(lmin), float(lmax)
        self._theta = 0.5 * (self.lmax + self.lmin)
        self._delta = 0.5 * (self.lmax - self.lmin)
        self._apply_charge = Charge(
            comm.size, 6.0 * self.pm.layout.sizes * max(degree - 1, 1)
        )

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Standard Chebyshev semi-iteration on A z = r from z = 0
        (Saad, Alg. 12.1): one distributed matvec per degree."""
        theta, delta = self._theta, self._delta
        sigma1 = theta / delta
        rho = 1.0 / sigma1
        d = r / theta
        z = d.copy()
        for _ in range(self.degree - 1):
            res = r - self.dmat.matvec(self.comm, z)
            rho_new = 1.0 / (2.0 * sigma1 - rho)
            d = rho_new * rho * d + (2.0 * rho_new / delta) * res
            rho = rho_new
            z = z + d
        self.comm.ledger.add_charge(self._apply_charge)
        return z
