"""Reference scalar ILU kernels — the semantic ground truth.

These are the original dict/heap row-by-row eliminations (Saad, Alg. 10.4
and 10.6), kept verbatim as the ``"reference"`` kernel tier.  They are the
only tier that supports the fault-injection pivot hooks (``pivot_pre`` /
``pivot_post`` fire per row, in elimination order) and MILU's dropped-mass
accumulation, so :mod:`repro.kernels` routes those cases here.  The fast
tiers are validated against these kernels.

The public entry points remain :func:`repro.factor.ilu0.ilu0` and
:func:`repro.factor.ilut.ilut`; this module only computes.
"""

from __future__ import annotations

import heapq

import numpy as np
import scipy.sparse as sp

from repro import faults, obs
from repro.kernels.band import row_norms2
from repro.resilience.errors import FactorizationBreakdown

_PIVOT_FLOOR = 1e-12


def _check_breakdown(
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


def ilu0_reference(
    a: sp.csr_matrix, modified: bool, shift: float
) -> tuple[np.ndarray, int]:
    """Scalar ILU(0)/MILU(0): returns ``(lu_data, floored)``.

    ``lu_data`` is aligned to A's CSR pattern (L below the diagonal with
    unit diagonal implicit, U on and above it).
    """
    n = a.shape[0]
    indptr, indices = a.indptr, a.indices
    data = a.data.copy()
    plan = faults.active()

    # position of each column within each row, and of the diagonal
    colpos = [
        {int(indices[p]): int(p) for p in range(indptr[i], indptr[i + 1])}
        for i in range(n)
    ]
    missing = [i for i in range(n) if i not in colpos[i]]
    if missing:
        raise ValueError(f"row {missing[0]} has no stored diagonal entry")
    diag_pos = np.array([colpos[i][i] for i in range(n)], dtype=np.int64)
    if shift:
        data[diag_pos] += shift

    floored = 0
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        rownorm = float(np.abs(data[lo:hi]).max()) or 1.0
        dropped = 0.0
        for p in range(lo, hi):
            k = int(indices[p])
            if k >= i:
                break
            piv = data[diag_pos[k]]
            lik = data[p] / piv
            data[p] = lik
            if lik == 0.0:  # repro: noqa(RPR001) — exact-zero skip; a tolerance would change the factors
                continue
            # update row i against U-part of row k, restricted to pattern(i)
            khi = indptr[k + 1]
            for q in range(diag_pos[k] + 1, khi):
                j = int(indices[q])
                pos = colpos[i].get(j)
                if pos is not None:
                    data[pos] -= lik * data[q]
                elif modified:
                    dropped += lik * data[q]
        dp = diag_pos[i]
        if modified:
            data[dp] -= dropped
        if plan is not None:
            data[dp] = plan.pivot_pre(i, float(data[dp]))
        if abs(data[dp]) < _PIVOT_FLOOR * rownorm:
            floored += 1
            data[dp] = _PIVOT_FLOOR * rownorm if data[dp] >= 0 else -_PIVOT_FLOOR * rownorm
        if plan is not None:
            data[dp] = plan.pivot_post(i, float(data[dp]))

    return data, floored


def ilut_reference(
    a: sp.csr_matrix, drop_tol: float, fill: int, shift: float
) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray, int]:
    """Scalar ILUT(τ, p): returns ``(l_csr, u_strict, u_diag, floored)``."""
    n = a.shape[0]
    indptr, indices, adata = a.indptr, a.indices, a.data
    plan = faults.active()

    # U rows stored as (cols ndarray, vals ndarray, diag value); L rows likewise
    u_cols: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    u_vals: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    u_diag = np.empty(n)
    l_cols: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    l_vals: list[np.ndarray] = [None] * n  # type: ignore[list-item]

    norms = row_norms2(n, indptr, adata).tolist()
    floored = 0
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        cols_i = indices[lo:hi]
        vals_i = adata[lo:hi]
        rownorm = norms[i]
        tau = drop_tol * rownorm

        w: dict[int, float] = dict(zip(cols_i.tolist(), vals_i.tolist()))
        w[i] = w.get(i, 0.0) + shift

        # eliminate lower entries in increasing column order (heap with
        # lazy re-push handles fill-in below the current minimum)
        heap = [int(c) for c in cols_i if c < i]
        heapq.heapify(heap)
        done: set[int] = set()
        while heap:
            k = heapq.heappop(heap)
            if k in done or k not in w:
                continue
            done.add(k)
            lik = w[k] / u_diag[k]
            if abs(lik) <= tau:
                del w[k]  # dropped L entry: skip its update entirely
                continue
            w[k] = lik
            ucols, uvals = u_cols[k], u_vals[k]
            for j, ukj in zip(ucols.tolist(), uvals.tolist()):
                cur = w.get(j)
                if cur is None:
                    w[j] = -lik * ukj
                    if j < i:
                        heapq.heappush(heap, j)
                else:
                    w[j] = cur - lik * ukj

        diag = w.pop(i, 0.0)
        lower = [(c, v) for c, v in w.items() if c < i and abs(v) > tau]
        upper = [(c, v) for c, v in w.items() if c > i and abs(v) > tau]
        # tie-break equal magnitudes on the smaller column so the selection
        # is a pure function of the values — the band tiers (lexsort) and
        # this scalar loop must pick identical survivors bit-for-bit
        lower.sort(key=lambda cv: (-abs(cv[1]), cv[0]))
        upper.sort(key=lambda cv: (-abs(cv[1]), cv[0]))
        lower = sorted(lower[:fill])
        upper = sorted(upper[:fill])

        if plan is not None:
            diag = plan.pivot_pre(i, diag)
        if abs(diag) < _PIVOT_FLOOR * rownorm:
            floored += 1
            diag = _PIVOT_FLOOR * rownorm if diag >= 0 else -_PIVOT_FLOOR * rownorm
        if plan is not None:
            diag = plan.pivot_post(i, diag)
        u_diag[i] = diag
        l_cols[i] = np.asarray([c for c, _ in lower], dtype=np.int64)
        l_vals[i] = np.asarray([v for _, v in lower])
        u_cols[i] = np.asarray([c for c, _ in upper], dtype=np.int64)
        u_vals[i] = np.asarray([v for _, v in upper])

    l_csr = _rows_to_csr(l_cols, l_vals, n)
    u_strict = _rows_to_csr(u_cols, u_vals, n)
    return l_csr, u_strict, u_diag, floored


def _rows_to_csr(cols: list[np.ndarray], vals: list[np.ndarray], n: int) -> sp.csr_matrix:
    counts = np.asarray([len(c) for c in cols], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(counts)))  # repro: noqa(RPR005) — integer indptr construction, exact
    indices = np.concatenate(cols) if indptr[-1] else np.empty(0, dtype=np.int64)
    data = np.concatenate(vals) if indptr[-1] else np.empty(0)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))
