"""Diagonal (point-Jacobi) preconditioner.

Not one of the paper's contenders — it exists as the last link of the
resilience fallback chain (docs/robustness.md): M = diag(A) cannot break
down (zero diagonals are replaced by 1, degrading those points to identity),
needs no factorization, and communicates nothing, so a solve that defeated
every ILU-based preconditioner still gets *some* preconditioning instead of
an abort.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.comm.communicator import Communicator
from repro.distributed.matrix import DistributedMatrix
from repro.perfmodel.costs import Charge
from repro.precond.base import ParallelPreconditioner


class JacobiPreconditioner(ParallelPreconditioner):
    """M = diag(A); the never-fails tail of the fallback chain."""

    name = "Jacobi"

    def __init__(self, dmat: DistributedMatrix, comm: Communicator) -> None:
        super().__init__(dmat, comm)
        d = dmat.diagonal_dist().copy()
        zero = ~np.isfinite(d) | (d == 0.0)  # repro: noqa(RPR001) — only exactly-zero diagonals are uninvertible
        if np.any(zero):
            obs.event(
                "resilience.detected", kind="zero-diagonal",
                where="jacobi.setup", count=int(np.count_nonzero(zero)),
            )
            d[zero] = 1.0
        self._inv_diag = 1.0 / d
        # setup cost: one reciprocal per owned point
        self._charge_setup(self.pm.layout.sizes.astype(float))
        self._apply_charge = Charge(comm.size, self.pm.layout.sizes.astype(float))

    def apply(self, r: np.ndarray) -> np.ndarray:
        z = r * self._inv_diag
        self.comm.ledger.add_charge(self._apply_charge)
        return z


def jacobi(dmat: DistributedMatrix, comm: Communicator) -> JacobiPreconditioner:
    """Factory matching the other preconditioner constructors."""
    return JacobiPreconditioner(dmat, comm)
