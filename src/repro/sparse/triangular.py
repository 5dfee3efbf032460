"""Sparse triangular solves behind the tiered apply kernels.

Forward/backward substitution is the kernel executed on every
preconditioner application (twice per subdomain per iteration), so it must
not be a Python per-row loop.  :class:`TriangularFactor` prepares a
strictly triangular factor once and hands each solve to the apply-kernel
tiers of :mod:`repro.kernels.apply` — a compiled SuperLU column sweep on
the numpy tier, the interpreted specification loops on the reference tier.
Both produce bitwise-identical solutions (the contract is documented in
docs/performance.md, "Apply phase").

Non-unit diagonals never enter the sweeps: the factor stores its strict
triangle column-scaled by the inverse diagonal (``t̃_ij = t_ij / d_j``,
algebraically ``T = (I + S D^{-1}) D``) and multiplies the unit-sweep
output elementwise by ``1/d`` — one shared operation, identical in every
tier.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.kernels.apply import UnitSweeps, stack_csr
from repro.utils.validation import ensure_csr


class TriangularFactor:
    """A strictly triangular factor prepared for repeated fast solves.

    Parameters
    ----------
    strict:
        CSR matrix holding only the strictly lower (or upper) triangle.
    diag:
        Diagonal entries; ``None`` means a unit diagonal (the L convention).
    lower:
        Orientation of the triangle.

    The compiled-sweep state is built lazily, on the first solve, so
    constructing factors (e.g. inside the parallel setup phase or the
    factor cache) stays cheap.
    """

    def __init__(
        self,
        strict: sp.csr_matrix,
        diag: np.ndarray | None,
        lower: bool,
    ) -> None:
        strict = ensure_csr(strict)
        n = strict.shape[0]
        if strict.shape[1] != n:
            raise ValueError("triangular factor must be square")
        if diag is not None:
            diag = np.asarray(diag, dtype=np.float64)
            if diag.shape != (n,):
                raise ValueError("diag must have one entry per row")
            if np.any(diag == 0.0):  # repro: noqa(RPR001) — exact-zero diagonal is the only illegal value
                raise ZeroDivisionError("triangular factor has a zero diagonal entry")
        self.n = n
        self.lower = lower
        self.diag = diag
        self.strict = strict
        strict.sort_indices()
        if diag is None:
            self.invd: np.ndarray | None = None
            self.scaled: sp.csr_matrix = strict
        else:
            # T = (I + S D^{-1}) D: column-scale the strict triangle so the
            # sweeps only ever solve unit triangles; the trailing x *= invd
            # is the one shared elementwise op of the non-unit case
            self.invd = 1.0 / diag
            self.scaled = sp.csr_matrix(
                (strict.data * self.invd[strict.indices], strict.indices, strict.indptr),
                shape=strict.shape,
            )
        self.sweeps = (
            UnitSweeps(n, self.scaled, None) if lower
            else UnitSweeps(n, None, self.scaled)
        )

    @property
    def nnz(self) -> int:
        return self.strict.nnz + (0 if self.diag is None else self.n)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``T x = b`` where ``T = strict + diag(diag or 1)``."""
        x = self.sweeps.solve(b)
        if self.invd is not None:
            x = x * self.invd
        return x

    def flops(self) -> int:
        """Floating-point operation count of one solve (for the perf model)."""
        return 2 * self.strict.nnz + (0 if self.diag is None else self.n)

    @classmethod
    def stacked(cls, factors: Sequence["TriangularFactor"], lower: bool) -> "TriangularFactor":
        """The block-diagonal factor of ``factors`` (one per rank, all of
        orientation ``lower``, all unit-diagonal or none).

        Blocks do not couple, so a sweep over the stack performs, unknown by
        unknown, the multiply-subtract sequence of the per-block sweeps: one
        compiled call instead of one per rank, the same bits.
        """
        unit = all(t.diag is None for t in factors)
        diag = None if unit else np.concatenate([np.empty(0)] + [t.diag for t in factors])
        return cls(stack_csr([t.strict for t in factors]), diag, lower=lower)


class FusedLU:
    """``(L U)^{-1}`` for a unit-lower / upper pair: one fused sweep, one scaling.

    :meth:`repro.factor.base.ILUFactorization.solve` solves through one, and
    so does any other pair of prepared triangles — the Schur blocks of a
    subdomain ILU, or the rank-stacked triangles of a whole preconditioner
    (:meth:`stacked`).  Bit-compatible with ``upper.solve(lower.solve(b))``.
    """

    def __init__(self, lower: TriangularFactor, upper: TriangularFactor) -> None:
        if lower.diag is not None:
            raise ValueError("the lower factor of a fused sweep must be unit-diagonal")
        self.n = lower.n
        self.sweeps = UnitSweeps(lower.n, lower.scaled, upper.scaled)
        self.invd = upper.invd

    @classmethod
    def stacked(
        cls, lowers: Sequence[TriangularFactor], uppers: Sequence[TriangularFactor]
    ) -> "FusedLU":
        """All ranks' pairs as one block-diagonal pair."""
        return cls(
            TriangularFactor.stacked(lowers, lower=True),
            TriangularFactor.stacked(uppers, lower=False),
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self.sweeps.solve(b)
        if self.invd is not None:
            x = x * self.invd
        return x


def _split_strict(a: sp.csr_matrix, lower: bool) -> tuple[sp.csr_matrix, np.ndarray]:
    a = ensure_csr(a)
    diag = a.diagonal()
    strict = sp.tril(a, k=-1, format="csr") if lower else sp.triu(a, k=1, format="csr")
    return strict, diag


def solve_lower_unit(l_strict: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    """One-shot unit-lower solve ``(I + L) x = b`` (convenience for tests)."""
    return TriangularFactor(l_strict, None, lower=True).solve(b)


def solve_upper(u: sp.csr_matrix, b: np.ndarray) -> np.ndarray:
    """One-shot upper solve ``U x = b`` where ``U`` stores its diagonal."""
    strict, diag = _split_strict(u, lower=False)
    return TriangularFactor(strict, diag, lower=False).solve(b)
