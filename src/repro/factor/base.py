"""Common container for incomplete LU factorizations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.resilience.errors import FactorizationBreakdown
from repro.sparse.triangular import FusedLU, TriangularFactor
from repro.utils.validation import ensure_csr


@dataclass(frozen=True)
class FactorStats:
    """Health diagnostics of one incomplete factorization.

    ``floored_pivots`` counts diagonal entries that collapsed below the
    pivot floor and were replaced — each one is a row whose elimination the
    factorization essentially gave up on.  A nonzero count is survivable; a
    large fraction means the factors are untrustworthy (see
    ``breakdown_frac`` in :func:`repro.factor.ilu0.ilu0` /
    :func:`repro.factor.ilut.ilut` and ``docs/robustness.md``).
    """

    n: int = 0
    floored_pivots: int = 0
    shift: float = 0.0

    @property
    def floored_fraction(self) -> float:
        return self.floored_pivots / max(self.n, 1)


def check_breakdown(
    where: str, floored: int, n: int, breakdown_frac: float | None, shift: float
) -> None:
    """Shared floored-fraction breakdown test for the ILU variants."""
    if breakdown_frac is None or floored <= breakdown_frac * n:
        return
    obs.event(
        "resilience.detected", kind="breakdown", where=where,
        floored=floored, n=n,
    )
    raise FactorizationBreakdown(
        f"{where}: {floored}/{n} pivots collapsed to the floor "
        f"(> breakdown_frac={breakdown_frac:g})",
        floored=floored, n=n, breakdown_frac=breakdown_frac, shift=shift,
    )


class ILUFactorization:
    """An (incomplete) LU factorization A ≈ L U.

    ``l_strict`` holds the strictly lower triangle of L (unit diagonal
    implicit); ``u_upper`` holds U including its diagonal.  Solves use the
    tiered sweep kernels of :mod:`repro.kernels.apply`.
    ``stats`` carries the producing algorithm's health counters (pivot
    floors, diagonal shift); factorizations built directly from L/U parts
    get zeroed stats.
    """

    def __init__(
        self,
        l_strict: sp.csr_matrix,
        u_upper: sp.csr_matrix,
        stats: FactorStats | None = None,
    ) -> None:
        self.l_strict = ensure_csr(l_strict)
        self.u_upper = ensure_csr(u_upper)
        n = self.l_strict.shape[0]
        if self.l_strict.shape != (n, n) or self.u_upper.shape != (n, n):
            raise ValueError("L and U must be square and the same size")
        self.n = n
        self.stats = stats if stats is not None else FactorStats(n=n)
        u_strict = sp.triu(self.u_upper, k=1, format="csr")
        diag = self.u_upper.diagonal()
        self.L = TriangularFactor(self.l_strict, None, lower=True)
        self.U = TriangularFactor(ensure_csr(u_strict), diag, lower=False)
        self._lu = FusedLU(self.L, self.U)
        self.sweeps = self._lu.sweeps

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply (LU)^{-1}: forward then backward substitution.

        Both sweeps run fused through :class:`repro.sparse.triangular.FusedLU`
        (one compiled gstrs call on the numpy tier, bitwise the scalar spec
        by the operation-order argument of docs/algorithms.md and the
        once-per-process check of :func:`repro.kernels.apply.gstrs_trusted`),
        bit-compatible with composing ``self.L.solve`` and ``self.U.solve``.
        """
        return self._lu.solve(b)

    def solve_flops(self) -> float:
        """Flop count of one forward+backward solve (for the perf model)."""
        return float(self.L.flops() + self.U.flops())

    def setup_flops(self) -> float:
        """Rough factorization cost: each L entry triggers one U-row update."""
        avg_u_row = self.u_upper.nnz / max(self.n, 1)
        return 2.0 * self.l_strict.nnz * avg_u_row + 2.0 * self.nnz

    # -- the wire codec: the only definition of a factor's layout on a pipe --

    def to_wire(self, key: str, perm: np.ndarray | None = None) -> tuple[dict, list]:
        """``(meta, arrays)`` of this factor as ``LOAD_FACTOR`` carries it and
        ``FACTOR`` returns it: the CSR triples of L then U, then the RCM
        permutation the factor was built in (``meta["has_perm"]``)."""
        meta = {
            "key": key, "n": self.n,
            "floored_pivots": self.stats.floored_pivots,
            "shift": self.stats.shift, "has_perm": perm is not None,
        }
        arrays = [
            self.l_strict.indptr, self.l_strict.indices, self.l_strict.data,
            self.u_upper.indptr, self.u_upper.indices, self.u_upper.data,
        ]
        if perm is not None:
            arrays.append(np.asarray(perm, dtype=np.int64))
        return meta, arrays

    @classmethod
    def from_wire(
        cls, meta: dict, arrays: list
    ) -> tuple["ILUFactorization", np.ndarray | None]:
        """Inverse of :meth:`to_wire`: ``(factorization, perm | None)``.

        Every array is copied — wire arrays are read-only views of a frame.
        """
        n = int(meta["n"])
        l_ptr, l_idx, l_val, u_ptr, u_idx, u_val = (np.array(a) for a in arrays[:6])
        stats = FactorStats(
            n=n, floored_pivots=int(meta.get("floored_pivots", 0)),
            shift=float(meta.get("shift", 0.0)),
        )
        fac = cls(
            sp.csr_matrix((l_val, l_idx, l_ptr), shape=(n, n)),
            sp.csr_matrix((u_val, u_idx, u_ptr), shape=(n, n)),
            stats,
        )
        return fac, np.array(arrays[6]) if meta.get("has_perm") else None

    @property
    def nnz(self) -> int:
        return self.l_strict.nnz + self.u_upper.nnz

    def fill_factor(self, a: sp.csr_matrix) -> float:
        """nnz(L+U) / nnz(A) — the classical memory-cost metric."""
        return (self.nnz + self.n) / max(a.nnz, 1)

    def as_product(self) -> sp.csr_matrix:
        """Explicit L @ U (testing aid; O(n·nnz), small matrices only)."""
        eye = sp.eye(self.n, format="csr")
        return ensure_csr((self.l_strict + eye) @ self.u_upper)

    def __repr__(self) -> str:
        extra = ""
        if self.stats.floored_pivots:
            extra = f", floored_pivots={self.stats.floored_pivots}"
        if self.stats.shift:
            extra += f", shift={self.stats.shift:g}"
        return f"ILUFactorization(n={self.n}, nnz={self.nnz}{extra})"


def solve_permuted(
    fac: ILUFactorization, perm: np.ndarray | None, b: np.ndarray
) -> np.ndarray:
    """``fac.solve`` for a factor built in ``perm`` order (``None`` = natural):
    permute the right-hand side in, solve, scatter the result back."""
    if perm is None:
        return fac.solve(b)
    z_p = fac.solve(b[perm])
    z = np.empty_like(z_p)
    z[perm] = z_p
    return z
