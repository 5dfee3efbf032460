"""Dense LU with partial pivoting (Gaussian elimination).

Used where the paper uses a direct solve: the coarse-grid system of the
additive Schwarz comparison ("solved by Gaussian elimination").  Implemented
from scratch with vectorized column elimination.
"""

from __future__ import annotations

import numpy as np


class DenseLU:
    """PA = LU factorization with partial pivoting."""

    def __init__(self, lu: np.ndarray, piv: np.ndarray) -> None:
        self.lu = lu
        self.piv = piv
        self.n = lu.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b (or the batched A X = B for 2-D ``b``)."""
        b = np.asarray(b, dtype=np.float64)
        x = b[self.piv].astype(np.float64, copy=True)
        lu, n = self.lu, self.n
        for k in range(n):  # forward: unit lower
            x[k + 1 :] -= np.outer(lu[k + 1 :, k], x[k]) if x.ndim == 2 else lu[k + 1 :, k] * x[k]
        for k in range(n - 1, -1, -1):  # backward
            x[k] /= lu[k, k]
            if k:
                x[:k] -= np.outer(lu[:k, k], x[k]) if x.ndim == 2 else lu[:k, k] * x[k]
        return x

    def flops(self) -> float:
        """Flop count of one solve."""
        return 2.0 * self.n * self.n


def dense_lu(a: np.ndarray) -> DenseLU:
    """Factor a dense square matrix with partial pivoting."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    lu = a.copy()
    n = lu.shape[0]
    piv = np.arange(n)
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if lu[p, k] == 0.0:  # repro: noqa(RPR001) — exact singularity after full-column pivoting
            raise ZeroDivisionError(f"matrix is singular at column {k}")
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            piv[[k, p]] = piv[[p, k]]
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    if n and lu[n - 1, n - 1] == 0.0:  # repro: noqa(RPR001) — exact singularity check
        raise ZeroDivisionError("matrix is singular")
    return DenseLU(lu, piv)
