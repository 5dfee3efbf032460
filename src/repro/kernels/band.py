"""Array-native band-window ILUT kernel (the fast factorization tier).

ILUT is reformulated right-looking over a dense band workspace
``W[i, c - i + bw]`` (``bw`` = bandwidth of A).  Rows finalize in ascending
order; each finalized row k applies ONE rank-1 update to the parallelogram
of future rows ``k+1 .. k+bw``.  The elimination sweep is a pluggable
callable so two implementations share the exact same setup and extraction
code:

* :func:`ilut_sweep` here — vectorized NumPy, a handful of small-array
  ufunc calls per row through stride-tricks views;
* :func:`repro.kernels.rowspec.ilut_sweep` — the scalar row-by-row mirror
  of the same elementwise operation sequence (the readable specification
  the tests hold this sweep to).

Why the band reformulation is exact: incomplete-LU fill of a band matrix
stays inside the band (L and U inherit A's bandwidth inductively), and the
right-looking order applies the same ascending-k sequence of
``w -= lik * u`` operations to every element as the reference left-looking
row sweep — so both sweeps produce bit-identical factors, and match the
reference tier up to rare tie-breaking in the fill-cap selection.

The kernel is deliberately hook-free: fault-injection pivot hooks are
semantics of the reference tier, and the dispatcher (:mod:`repro.kernels`)
routes those cases there.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.analysis.sanitize.fp import kernel_guard

_PIVOT_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# shared geometry helpers
# ---------------------------------------------------------------------------

def csr_row_ids(n: int, indptr: np.ndarray) -> np.ndarray:
    """Row index of every stored entry (the CSR 'expand indptr' idiom)."""
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))


def bandwidth(n: int, indptr: np.ndarray, indices: np.ndarray) -> int:
    """Max ``|col - row|`` over stored entries (>= 1 for convenience)."""
    if indices.size == 0:
        return 1
    return max(int(np.abs(indices - csr_row_ids(n, indptr)).max()), 1)


def row_norms2(n: int, indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Per-row 2-norms (zero rows -> 1.0)."""
    rows = csr_row_ids(n, indptr)
    with kernel_guard("kernels.band.row_norms2"):
        norms = np.sqrt(np.bincount(rows, weights=data * data, minlength=n))
    norms[norms <= 0.0] = 1.0  # norms are non-negative
    return norms


def band_scatter(n, indptr, indices, data, shift, bw):
    """Scatter CSR data into the padded band workspace.

    The workspace has ``bw + 1`` zero padding rows at the bottom so the
    future-row views of the last rows stay in bounds; padding is written to
    but never read back.
    """
    wst = np.zeros((n + bw + 1, 2 * bw + 1))
    rows = csr_row_ids(n, indptr)
    wst[rows, indices - rows + bw] = data
    if shift:
        wst[:n, bw] += shift
    return wst


# ---------------------------------------------------------------------------
# vectorized elimination sweep (the pure-NumPy tier)
# ---------------------------------------------------------------------------

def ilut_sweep(wst, n, bw, fill, taus, norms):
    """Vectorized ILUT(τ, p) elimination over the band workspace."""
    width = 2 * bw + 1
    taus_l = taus.tolist()
    norms_l = norms.tolist()

    s = wst.strides[0]
    base = wst[1:, bw - 1:]
    # per-k views: column k of the future rows, and their trailing window
    c_col = as_strided(base, shape=(n, bw), strides=(s, s - 8))
    c_out = as_strided(base, shape=(n, bw, 1), strides=(s, s - 8, 8))
    d_win = as_strided(wst[1:, bw:], shape=(n, bw, bw), strides=(s, s - 8, 8))
    upper = wst[:n, bw + 1:]
    t_slc = (
        as_strided(taus[1:], shape=(n - 1, bw), strides=(8, 8))
        if n > 1
        else taus.reshape(1, -1)
    )

    ab = np.empty(bw)
    lab = np.empty(bw)
    kp8 = np.empty(bw, dtype=bool)
    kl8 = np.empty(bw, dtype=bool)
    tmp = np.empty((bw, bw))
    floored = 0

    np_abs, np_gt, np_ge = np.abs, np.greater, np.greater_equal
    np_cnz, np_mul, np_div, np_sub = (
        np.count_nonzero, np.multiply, np.divide, np.subtract,
    )
    wflat = wst.ravel()

    n_main = max(n - bw, 0)
    for k in range(n):
        main = k < n_main
        nf = bw if main else n - 1 - k
        tau = taus_l[k]

        # ---- dual-threshold selection of row k's upper part, in place ----
        if nf:
            up = upper[k] if main else upper[k, :nf]
            a_up = np_abs(up, out=ab if main else ab[:nf])
            kp = np_gt(a_up, tau, out=kp8 if main else kp8[:nf])
            if np_cnz(kp) > fill:
                cutoff = np.partition(a_up, nf - fill)[nf - fill]
                np_ge(a_up, cutoff, out=kp)
                if np_cnz(kp) > fill:
                    strict = a_up > cutoff
                    need = fill - int(np_cnz(strict))
                    kp[:] = strict
                    if need > 0:
                        ties = np.flatnonzero(a_up == cutoff)[:need]
                        kp[ties] = True
            np_mul(up, kp, out=up)

        # ---- sign-preserving pivot floor ----
        diag = wflat.item(k * width + bw)
        lim = _PIVOT_FLOOR * norms_l[k]
        if -lim < diag < lim:
            floored += 1
            diag = lim if diag >= 0 else -lim
            wflat[k * width + bw] = diag

        # ---- one rank-1 update of the future parallelogram ----
        if nf:
            col0 = c_col[k] if main else c_col[k, :nf]
            np_div(col0, diag, out=col0)
            a_l = np_abs(col0, out=lab if main else lab[:nf])
            kl = np_gt(
                a_l,
                t_slc[k] if main else taus[k + 1: k + 1 + nf],
                out=kl8 if main else kl8[:nf],
            )
            np_mul(col0, kl, out=col0)
            t = np_mul(
                c_out[k] if main else c_out[k, :nf],
                up,
                out=tmp if main else tmp[:nf, :nf],
            )
            vsub = d_win[k] if main else d_win[k, :nf, :nf]
            np_sub(vsub, t, out=vsub)

    return floored


# ---------------------------------------------------------------------------
# factor drivers: setup -> sweep -> vectorized extraction
# ---------------------------------------------------------------------------

def _cap_lower_fill(n, ri, lcols, lvals, fill):
    """Per-row top-``fill`` selection on |value| (ties: smallest column)."""
    cnt = np.bincount(ri, minlength=n)
    if cnt.size and cnt.max() > fill:
        order = np.lexsort((lcols, -np.abs(lvals), ri))
        rank = np.arange(ri.size) - np.repeat(
            np.concatenate(([0], np.cumsum(cnt)))[:-1], cnt  # repro: noqa(RPR005) — integer count arithmetic, exact
        )
        sel = order[rank < fill]
        sel.sort()
        ri, lcols, lvals = ri[sel], lcols[sel], lvals[sel]
        cnt = np.bincount(ri, minlength=n)
    return ri, lcols, lvals, cnt


def ilut_factor(n, indptr, indices, data, drop_tol, fill, shift, norms,
                sweep=ilut_sweep):
    """Band ILUT: returns ``(l_indptr, l_indices, l_data, u_indptr,
    u_indices, u_data, floored)`` with diagonal-first upper rows."""
    bw = bandwidth(n, indptr, indices)
    wst = band_scatter(n, indptr, indices, data, shift, bw)
    taus = drop_tol * norms
    floored = sweep(wst, n, bw, fill, taus, norms)
    w = wst[:n]

    # L from the lower band; dropped/sub-tau slots are exact zeros
    low = w[:, :bw]
    ri, ci = np.nonzero(low)
    lcols = ri - bw + ci
    lvals = low[ri, ci]
    ri, lcols, lvals, cnt = _cap_lower_fill(n, ri, lcols, lvals, fill)
    l_indptr = np.concatenate(([0], np.cumsum(cnt)))  # repro: noqa(RPR005) — integer indptr construction, exact

    # U rows diag-first; the diagonal is always nonzero after flooring
    udiag_up = w[:, bw:]
    uri, uci = np.nonzero(udiag_up)
    u_indices = uri + uci
    u_data = udiag_up[uri, uci]
    u_indptr = np.concatenate(([0], np.cumsum(np.bincount(uri, minlength=n))))  # repro: noqa(RPR005) — integer indptr construction, exact
    return l_indptr, lcols, lvals, u_indptr, u_indices, u_data, floored
