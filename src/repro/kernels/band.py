"""Array-native window ILUT kernel (the fast factorization path).

ILUT is reformulated right-looking over a dense window of A: entry
``(i, c)`` lives at flat index ``i * stride + c + off``, which is a band
window (``stride = 2 bw``, ``off = bw``) when that is smaller than the
square one (``stride = n``, ``off = 0``) — the same code serves both.  Rows
finalize in ascending order; step k selects the surviving upper entries of
row k (the dual threshold), floors the pivot, divides column k, and applies
ONE rank-1 update restricted to the *index set* ``rows x cols`` of kept L
entries of column k and kept U entries of row k.  The cost of a step is a
scan of one window row and one window column plus the size of that set, so
it does not grow with the square of the bandwidth.

Why this is exact: every window element receives the same ascending-k
sequence of ``w - lik * ukj`` (multiply, then subtract — no fused
multiply-add) as the reference left-looking row sweep, the drop and fill-cap
decisions are taken on the same values with the same tie-break (larger
magnitude, then smaller column), and dropped entries are never read again —
so the factors are bit-identical to :mod:`repro.factor.reference`.

The kernel is deliberately hook-free: fault-injection pivot hooks are
semantics of the reference kernel, and the factor layer routes those cases
there.  L and U entries are gathered at elimination time; the window is
never scanned or copied as a whole.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.sanitize.fp import kernel_guard

_PIVOT_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# shared geometry helpers
# ---------------------------------------------------------------------------

def csr_row_ids(n: int, indptr: np.ndarray) -> np.ndarray:
    """Row index of every stored entry (the CSR 'expand indptr' idiom)."""
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def counts_to_indptr(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of per-row counts (the CSR ``indptr`` of them)."""
    return np.concatenate(([0], np.cumsum(counts)))  # repro: noqa(RPR005) — integer count arithmetic, exact


def bandwidth(n: int, indptr: np.ndarray, indices: np.ndarray) -> int:
    """Max ``|col - row|`` over stored entries (>= 1 for convenience)."""
    if indices.size == 0:
        return 1
    return max(int(np.abs(indices - csr_row_ids(n, indptr)).max()), 1)


def window_bytes(n: int, bw: int) -> int:
    """Footprint of the ILUT window: the band or the square, whichever is smaller."""
    return 8 * n * min(2 * bw + 1, n)


def row_norms2(n: int, indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Per-row 2-norms of the stored values (zero rows -> 1.0).

    The one norm expression of every ILUT kernel: pivot floors and drop
    thresholds are multiples of it, so the kernels must agree on its last
    bit, and a segmented sum rounds differently from BLAS ``dot``.
    """
    ptr = indptr.tolist()
    with kernel_guard("kernels.band.row_norms2"):
        sq = [np.dot(v, v) for v in (data[ptr[i]:ptr[i + 1]] for i in range(n))]
        norms = np.sqrt(np.asarray(sq, dtype=np.float64))
    norms[norms <= 0.0] = 1.0  # norms are non-negative
    return norms


# ---------------------------------------------------------------------------
# index-set elimination sweep
# ---------------------------------------------------------------------------

def ilut_sweep(n, indptr, indices, data, drop_tol, fill, shift, bw, norms):
    """ILUT(τ, p) elimination; returns the factors as per-step gathers.

    ``u_cols[k]``/``u_vals[k]`` hold row k of strict U (columns relative to
    ``k + 1``), ``l_rows[k]``/``l_vals[k]`` column k of L (rows relative to
    ``k + 1``, before the per-row fill cap), ``diags`` the pivots.
    """
    stride, off = (2 * bw, bw) if 2 * bw + 1 < n else (n, 0)
    step = stride + 1  # flat distance between consecutive diagonal entries
    wflat = np.zeros(n * step + off)
    rows = csr_row_ids(n, indptr)
    wflat[rows * stride + (indices + off)] = data
    if shift:
        wflat[off::step] += shift

    taus = drop_tol * norms
    taus_l = taus.tolist()
    lims = (_PIVOT_FLOOR * norms).tolist()
    row_off = np.arange(min(bw, n), dtype=np.int64) * stride  # of future row k+1+r
    u_cols, u_vals, l_rows, l_vals = [[None] * n for _ in range(4)]
    diags = [0.0] * n
    floored = 0
    np_abs, item = np.abs, wflat.item

    for k in range(n):
        b = k * step + off  # flat index of the diagonal (k, k)
        m = min(bw, n - 1 - k)  # trailing columns / future rows in the window

        # ---- dual-threshold selection of row k's upper part ----
        up = wflat[b + 1: b + 1 + m]
        a_up = np_abs(up)
        uc = (a_up > taus_l[k]).nonzero()[0]
        if uc.size > fill:
            # stable on the ascending columns: ties keep the smaller column
            uc = uc[(-a_up[uc]).argsort(kind="stable")[:fill]]
            uc.sort()
        uv = up[uc]
        u_cols[k], u_vals[k] = uc, uv

        # ---- sign-preserving pivot floor ----
        diag = item(b)
        lim = lims[k]
        if -lim < diag < lim:
            floored += 1
            diag = lim if diag >= 0 else -lim
        diags[k] = diag

        # ---- column k of L, then one rank-1 update of rows x cols ----
        col = wflat[b + stride: b + stride * m + 1: stride] / diag
        lr = (np_abs(col) > taus[k + 1: k + 1 + m]).nonzero()[0]
        lv = col[lr]
        l_rows[k], l_vals[k] = lr, lv
        if lr.size and uc.size:
            corner = wflat[b + step:]  # from (k+1, k+1) on
            idx = row_off[lr][:, None] + uc
            corner[idx] = corner[idx] - lv[:, None] * uv

    return u_cols, u_vals, l_rows, l_vals, np.asarray(diags), floored


# ---------------------------------------------------------------------------
# factor driver: norms -> sweep -> CSR assembly
# ---------------------------------------------------------------------------

def _cap_lower_fill(n, ri, lcols, lvals, fill):
    """Per-row top-``fill`` selection on |value| (ties: smallest column)."""
    cnt = np.bincount(ri, minlength=n)
    if cnt.size and cnt.max() > fill:
        # stable, and columns ascend within a row: ties keep the smaller one
        order = np.lexsort((-np.abs(lvals), ri))
        rank = np.arange(ri.size) - np.repeat(counts_to_indptr(cnt)[:-1], cnt)
        sel = order[rank < fill]
        sel.sort()
        ri, lcols, lvals = ri[sel], lcols[sel], lvals[sel]
        cnt = np.bincount(ri, minlength=n)
    return ri, lcols, lvals, cnt


def _concat(parts, dtype):
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def ilut_factor(n, indptr, indices, data, drop_tol, fill, shift, norms):
    """Window ILUT: returns ``(l_indptr, l_indices, l_data, u_indptr,
    u_indices, u_data, floored)`` with diagonal-first upper rows."""
    bw = bandwidth(n, indptr, indices)
    u_cols, u_vals, l_rows, l_vals, diags, floored = ilut_sweep(
        n, indptr, indices, data, drop_tol, fill, shift, bw, norms
    )
    ar = np.arange(n, dtype=np.int64)

    # U rows: the (always nonzero, floored) pivot first, then the kept entries
    ucnt = np.fromiter(map(len, u_cols), np.int64, n)
    u_indptr = counts_to_indptr(ucnt + 1)
    u_indices = np.empty(u_indptr[-1], dtype=np.int64)
    u_data = np.empty(u_indptr[-1])
    strict = np.ones(u_indptr[-1], dtype=bool)
    strict[u_indptr[:-1]] = False
    u_indices[u_indptr[:-1]], u_data[u_indptr[:-1]] = ar, diags
    u_indices[strict] = _concat(u_cols, np.int64) + np.repeat(ar + 1, ucnt)
    u_data[strict] = _concat(u_vals, np.float64)

    # L arrives column by column: a stable sort on the row makes it CSR
    lcnt = np.fromiter(map(len, l_rows), np.int64, n)
    ri = _concat(l_rows, np.int64) + np.repeat(ar + 1, lcnt)
    order = np.argsort(ri, kind="stable")
    ri, lcols, lvals, cnt = _cap_lower_fill(
        n, ri[order], np.repeat(ar, lcnt)[order],
        _concat(l_vals, np.float64)[order], fill,
    )
    return counts_to_indptr(cnt), lcols, lvals, u_indptr, u_indices, u_data, floored
