"""Extraction of Schur-complement factors from a subdomain ILU.

Paper Sec. 2: if A_i is ordered [internal; interface] and factored
A_i ≈ L_i U_i with

    L_i = [[L_B, 0], [E U_B^{-1}, L_S]],   U_i = [[U_B, L_B^{-1} F], [0, U_S]],

then L_S U_S ≈ S_i = C_i − E_i B_i^{-1} F_i: the trailing blocks of a single
ILU of A_i provide, for free, both an approximate solver for B_i (the leading
blocks) and an approximate solver for the local Schur complement S_i (the
trailing blocks).  Schur 1 is built exactly this way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.factor.base import ILUFactorization
from repro.sparse.triangular import FusedLU, TriangularFactor
from repro.utils.validation import ensure_csr


@dataclass
class SchurBlocks:
    """Leading (B) and trailing (S) triangular blocks of a subdomain ILU."""

    n_internal: int
    n_interface: int
    LB: TriangularFactor
    UB: TriangularFactor
    LS: TriangularFactor
    US: TriangularFactor

    def __post_init__(self) -> None:
        # each pair solves as one fused sweep, as the whole ILU does
        self._b = FusedLU(self.LB, self.UB)
        self._s = FusedLU(self.LS, self.US)
        self._b_flops = float(self.LB.flops() + self.UB.flops())
        self._s_flops = float(self.LS.flops() + self.US.flops())

    def solve_b(self, f: np.ndarray) -> np.ndarray:
        """Approximate B_i^{-1} f via the leading ILU blocks."""
        return self._b.solve(f)

    def solve_s(self, g: np.ndarray) -> np.ndarray:
        """Approximate S_i^{-1} g via the trailing ILU blocks."""
        return self._s.solve(g)

    def solve_b_flops(self) -> float:
        return self._b_flops

    def solve_s_flops(self) -> float:
        return self._s_flops


def _triangular_block(
    strict: sp.csr_matrix, diag: np.ndarray | None, lo: int, hi: int, lower: bool
) -> TriangularFactor:
    block = ensure_csr(strict[lo:hi, lo:hi])
    d = None if diag is None else diag[lo:hi]
    return TriangularFactor(block, d, lower=lower)


def extract_schur_blocks(ilu: ILUFactorization, n_internal: int) -> SchurBlocks:
    """Slice the (L_B, U_B) and (L_S, U_S) blocks out of a subdomain ILU.

    ``ilu`` must have been computed on the [internal; interface]-ordered
    subdomain matrix; ``n_internal`` is the split point.
    """
    n = ilu.n
    if not 0 <= n_internal <= n:
        raise ValueError(f"n_internal={n_internal} outside [0, {n}]")
    u_diag = ilu.u_upper.diagonal()
    u_strict = sp.triu(ilu.u_upper, k=1, format="csr")
    return SchurBlocks(
        n_internal=n_internal,
        n_interface=n - n_internal,
        LB=_triangular_block(ilu.l_strict, None, 0, n_internal, lower=True),
        UB=_triangular_block(u_strict, u_diag, 0, n_internal, lower=False),
        LS=_triangular_block(ilu.l_strict, None, n_internal, n, lower=True),
        US=_triangular_block(u_strict, u_diag, n_internal, n, lower=False),
    )
