"""Array-native window ILUT kernel (the fast factorization path).

ILUT is reformulated right-looking over a dense window of A, a band
bordered at a split s: rows and columns below s keep the band of the
leading s x s block (bandwidth bw), entry ``(i, c)`` at flat index
``i * pitch + c + bw``, ``pitch = 2 bw + n - s``; each such row stores its
columns >= s (the border) right after its band, and rows >= s are stored
whole.  ``s = n`` is the plain band, ``s = 0`` the square, and
:func:`window` picks s.  Rows finalize in ascending order; step k selects
the surviving upper entries of row k (the dual threshold), floors the
pivot, divides column k, and applies ONE rank-1 update restricted to the
*index set* ``rows x cols`` of kept L entries of column k and kept U
entries of row k.  The cost of a step is a scan of one window row and one
window column plus the size of that set, so it does not grow with the
square of the bandwidth.

Why this is exact: elimination without pivoting keeps fill inside the
leading block's band (by induction on k) and the border is stored whole,
so no entry the reference computes falls outside the window.  Every window
element receives the same ascending-k sequence of ``w - lik * ukj``
(multiply, then subtract — no fused multiply-add) as the reference
left-looking row sweep, the drop and fill-cap decisions are taken on the
same values with the same tie-break (larger magnitude, then smaller
column), and dropped entries are never read again — so the factors are
bit-identical to :mod:`repro.factor.reference`.

A live fault plan's pivot hooks run at step k as the reference runs them at
row k: ``pivot_pre``, the floor, ``pivot_post``, in ascending k, on the same
pivot value, so ``plan.injected`` is the reference's too.  L and U entries
are gathered at elimination time; the window is never scanned or copied as
a whole.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.sanitize.fp import kernel_guard

# the sign-preserving pivot floor of every ILU kernel, times the row norm
PIVOT_FLOOR = 1e-12


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


def window(n: int, indptr: np.ndarray, indices: np.ndarray, cap: int | None = None):
    """The ILUT window ``(s, bw, nbytes)`` of a matrix.

    The plain band (``s = n``), or the square when that is smaller, unless
    it exceeds ``cap`` bytes: then the split of smallest footprint, ``bw``
    being the bandwidth of its leading s x s block.
    """
    rows = csr_row_ids(n, indptr)
    lead_bw = np.zeros(n + 1, dtype=np.int64)  # [s]: leading s x s bandwidth
    np.maximum.at(lead_bw, np.maximum(rows, indices) + 1, np.abs(indices - rows))
    lead_bw = np.maximum(np.maximum.accumulate(lead_bw), 1)  # repro: noqa(RPR005) — integer max, exact
    s = np.arange(n + 1, dtype=np.int64)
    size = s * (2 * lead_bw + 1 + n - s) + (n - s) * n
    best = n if size[n] < size[0] else 0
    if cap is not None and 8 * size[best] > cap:
        best = int(size.argmin())
    return best, int(lead_bw[best]), 8 * int(size[best])


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

def ilut_sweep(
    n, indptr, indices, data, drop_tol, fill, shift, bw, norms, s, plan=None
):
    """ILUT(τ, p) elimination over the window split at ``s``; returns the
    factors as per-step gathers of window positions.

    ``u_cols[k]``/``u_vals[k]`` hold row k of strict U, ``l_rows[k]``/
    ``l_vals[k]`` column k of L (before the per-row fill cap), ``diags`` the
    pivots.  Position p of row k is column ``k + 1 + p``, and on a leading
    row the border column ``s + p - bw`` once ``p >= bw``; position i of
    column k is row ``k + 1 + i``, and row ``s + i - m`` once ``i`` passes
    the ``m`` band rows (:func:`_translate`).  ``plan``, a live fault plan,
    gets each pivot's hooks.
    """
    nb = n - s  # border width
    pitch = 2 * bw + nb  # flat distance down a leading column
    lead = s * (pitch + 1)  # row r >= s starts at lead + (r - s) * n
    ar = np.arange(n, dtype=np.int64)
    base = np.where(ar < s, ar * pitch + bw, lead + (ar - s) * n)  # + column
    jump = np.where(ar < s, ar + bw + 1 - s, 0)  # + again for a border column
    wflat = np.zeros(lead + nb * n)
    rows = csr_row_ids(n, indptr)
    wflat[base[rows] + indices + (indices >= s) * jump[rows]] = data
    # the leading columns whole rows may hold an entry in: those of A, and
    # every column an update of a whole row writes (a superset does no harm,
    # a zero never passes the drop test)
    tail_live = np.zeros(n, dtype=bool)
    tail_live[indices[rows >= s]] = True
    dpos = base + ar
    if shift:
        wflat[dpos] += shift

    taus = drop_tol * norms
    taus_l, tail_taus = taus.tolist(), taus[s:]
    lims = (PIVOT_FLOOR * norms).tolist()
    dpos = dpos.tolist()
    row_off = np.arange(bw, dtype=np.int64) * pitch  # of band row k+1+r
    u_len, ub = bw + nb, bw  # upper scan of a leading row; its first border position
    last = s - 1  # the band ends at row (and column) s - 1
    u_cols, u_vals, l_rows, l_vals = [[None] * n for _ in range(4)]
    diags = [0.0] * n
    floored = 0
    np_abs, item, cat = np.abs, wflat.item, np.concatenate

    for k in range(n):
        if k == s:  # rows >= s are whole: the square window from here on
            pitch, u_len, ub, nb, last = n, 0, n, 0, n - 1
            bw = bandwidth(n, indptr, indices)
            row_off = np.arange(n - s, dtype=np.int64) * n
        b = dpos[k]  # flat index of the diagonal (k, k)
        m = min(bw, last - k)  # band rows below k, band columns right of it

        # ---- dual-threshold selection of row k's upper part ----
        up = wflat[b + 1: b + 1 + max(m, u_len)]
        a_up = np_abs(up)
        uc = (a_up > taus_l[k]).nonzero()[0]
        if uc.size > fill:
            # stable on the ascending columns: ties keep the smaller column
            uc = uc[(-a_up[uc]).argsort(kind="stable")[:fill]]
            uc.sort()
        uv = up[uc]
        u_cols[k], u_vals[k] = uc, uv

        # ---- sign-preserving pivot floor, between the plan's hooks ----
        diag = item(b)
        if plan is not None:
            diag = plan.pivot_pre(k, diag)
        lim = lims[k]
        if -lim < diag < lim:
            floored += 1
            diag = lim if diag >= 0 else -lim
        if plan is not None:
            diag = plan.pivot_post(k, diag)
        diags[k] = diag

        # ---- column k of L, then one rank-1 update of rows x cols ----
        col, tc = wflat[b + pitch: b + pitch * m + 1: pitch], taus[k + 1: k + 1 + m]
        if nb and tail_live[k]:  # on down the whole rows
            col, tc = cat((col, wflat[lead + k::n])), cat((tc, tail_taus))
        col = col / diag
        lr = (np_abs(col) > tc).nonzero()[0]
        lv = col[lr]
        l_rows[k], l_vals[k] = lr, lv
        if lr.size and uc.size:
            if lr[-1] < m and uc[-1] < ub:  # inside the band: from (k+1, k+1) on
                corner = wflat[b + pitch + 1:]
                idx = row_off[lr][:, None] + uc
                corner[idx] = corner[idx] - lv[:, None] * uv
            else:  # the update reaches the border: flat indices of (row, column)
                r, c = _translate(k, lr, m, s), _translate(k, uc, ub, s)
                idx = base[r][:, None] + c + (c >= s) * jump[r][:, None]
                wflat[idx] = wflat[idx] - lv[:, None] * uv
                if lr[-1] >= m:
                    tail_live[c] = True

    return u_cols, u_vals, l_rows, l_vals, np.asarray(diags), floored


def _translate(k, pos, first, s):
    """Rows (columns) of window positions ``pos`` of step k: ``k + 1 + pos``
    in the band, ``s + pos - first`` from the border's first position on."""
    return pos + np.where(pos < first, k + 1, s - first)


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


def ilut_factor(
    n, indptr, indices, data, drop_tol, fill, shift, norms, win=None, plan=None
):
    """Window ILUT on the ``(s, bw)`` window ``win`` (default: the uncapped
    :func:`window`), with a live fault ``plan``'s pivot hooks: returns
    ``(l_indptr, l_indices, l_data, u_indptr, u_indices, u_data, floored)``
    with diagonal-first upper rows."""
    s, bw = win or window(n, indptr, indices)[:2]
    u_cols, u_vals, l_rows, l_vals, diags, floored = ilut_sweep(
        n, indptr, indices, data, drop_tol, fill, shift, bw, norms, s, plan
    )
    ar = np.arange(n, dtype=np.int64)
    first_u = np.where(ar < s, bw, n)  # first border position of each step
    first_l = np.where(ar < s, np.minimum(bw, s - 1 - ar), n)

    # U rows: the (always nonzero, floored) pivot first, then the kept entries
    ucnt = np.fromiter(map(len, u_cols), np.int64, n)
    u_indptr = counts_to_indptr(ucnt + 1)
    u_indices = np.empty(u_indptr[-1], dtype=np.int64)
    u_data = np.empty(u_indptr[-1])
    strict = np.ones(u_indptr[-1], dtype=bool)
    strict[u_indptr[:-1]] = False
    u_indices[u_indptr[:-1]], u_data[u_indptr[:-1]] = ar, diags
    k = np.repeat(ar, ucnt)
    u_indices[strict] = _translate(k, _concat(u_cols, np.int64), first_u[k], s)
    u_data[strict] = _concat(u_vals, np.float64)

    # L arrives column by column: a stable sort on the row makes it CSR
    k = np.repeat(ar, np.fromiter(map(len, l_rows), np.int64, n))
    ri = _translate(k, _concat(l_rows, np.int64), first_l[k], s)
    order = np.argsort(ri, kind="stable")
    ri, lcols, lvals, cnt = _cap_lower_fill(
        n, ri[order], k[order], _concat(l_vals, np.float64)[order], fill,
    )
    return counts_to_indptr(cnt), lcols, lvals, u_indptr, u_indices, u_data, floored
