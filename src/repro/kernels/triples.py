"""Array-native ILU(0) kernel: one right-looking sweep over update triples.

ILU(0) never changes the pattern, so every update it will ever make is
known up front: a triple ``(i, k, j)`` with ``(i, k)`` below the diagonal,
``(k, j)`` above it and ``(i, j)`` stored.  They are enumerated a chunk at a
time from the sorted CSR keys (``repeat`` for the candidates,
``searchsorted`` for the target positions), in pivot order, and swept
k = 0 … n-1: settle pivot k as the reference ends row k (MILU's dropped
mass, a live fault plan's ``pivot_pre``, the floor, ``pivot_post``), then
one gather–multiply–subtract–scatter over its group.  A group's targets are
distinct and it reads none of them, so a chunk may end inside it; an entry
meets its pivots in ascending k — the reference row loop's sequence of
``x - lik * ukj``, an exactly-zero ``lik`` skipped — and MILU adds the
candidates with no stored target to their rows' mass in candidate order,
the reference's (k, j) order.  So the factors, the floored count and the
plan's ``injected`` list are :func:`repro.factor.reference.ilu0_reference`'s
(docs/algorithms.md).  Grouping by elimination *level* instead would be
faster to sweep and is not bit-identical: it reorders the updates an entry
receives.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.sanitize.fp import kernel_guard
from repro.kernels.band import PIVOT_FLOOR, counts_to_indptr, csr_row_ids

# candidate triples enumerated at a time: bounds the index scratch (64 KiB
# per array) to a chunk, or to one lower entry's strict-upper pivot row
_CHUNK = 1 << 13


def _enumerate(low, first_u, reps, starts, rows, indices, keys, n):
    """Candidates of a run of lower entries ``low``, in order.

    Candidates pair every lower entry ``(i, k)`` with every strict-upper
    entry ``(k, j)`` of its pivot row (``reps`` of them from position
    ``first_u``, candidate numbers from ``starts``); a triple is a candidate
    whose target ``(i, j)`` is stored.
    Returns the positions of l and u per candidate, of its target if stored,
    and the mask of the triples.
    """
    tl = np.repeat(low, reps)
    tu = np.arange(tl.size, dtype=np.int64)
    tu -= np.repeat(starts - first_u, reps)
    want = rows[tl] * n + indices[tu]
    tt = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    return tl, tu, tt, keys[tt] == want


def ilu0_factor(n, indptr, indices, data, shift, modified=False, plan=None):
    """ILU(0), or MILU(0) when ``modified``, of a sorted, duplicate-free CSR
    matrix, with a live fault ``plan``'s pivot hooks: ``(lu_data, floored)``.

    ``lu_data`` is aligned to the pattern (L below the diagonal with unit
    diagonal implicit, U on and above it).
    """
    rows = csr_row_ids(n, indptr)
    dpos = np.flatnonzero(indices == rows)
    if dpos.size != n:
        missing = np.flatnonzero(np.bincount(rows[dpos], minlength=n) == 0)[0]
        raise ValueError(f"row {int(missing)} has no stored diagonal entry")
    data = data.copy()
    if shift:
        data[dpos] += shift
    if n == 0:
        return data, 0

    # lower entries in column-major order: column k owns low[col_ptr[k]:col_ptr[k+1]]
    low = np.flatnonzero(indices < rows)
    low = low[np.argsort(indices[low], kind="stable")]
    kk = indices[low]
    col_ptr = np.searchsorted(kk, np.arange(n + 1)).tolist()
    first_u = dpos[kk] + 1  # the pivot row's strict-upper entries: first position
    reps = indptr[1:][kk] - first_u  # and how many
    keys = rows * n + indices
    dropped = np.zeros(n if modified else 0)  # MILU's, per row
    with kernel_guard("kernels.triples.ilu0_factor"):
        cand = counts_to_indptr(reps)  # candidates before each lower entry
        norms = np.maximum.reduceat(np.abs(data), indptr[:-1])
        norms[norms <= 0.0] = 1.0  # a max of magnitudes: only exactly-zero rows
        lims = (PIVOT_FLOOR * norms).tolist()
        dp = dpos.tolist()

        floored = 0
        c0 = c1 = 0  # the enumerated chunk: lower entries c0..c1-1
        for k, d, lim, p, end in zip(range(n), dp, lims, col_ptr, col_ptr[1:]):
            # ---- settle pivot k: dropped mass, hooks and floor, written back ----
            if modified:
                data[d] -= dropped[k]
            piv = data.item(d)
            if plan is not None:
                piv = plan.pivot_pre(k, piv)
            if abs(piv) < lim:
                floored += 1
                piv = lim if piv >= 0 else -lim
                data[d] = piv
            if plan is not None:
                piv = plan.pivot_post(k, piv)
                data[d] = piv

            # ---- group k, a chunk at a time ----
            while p < end:
                if p == c1:  # the next lower entries: as many as fit, at least one
                    c0 = p
                    fit = np.searchsorted(cand, cand[p] + _CHUNK, side="right") - 1
                    c1 = max(p + 1, int(fit))
                    off = cand[c0: c1 + 1] - cand[c0]  # candidates before each
                    tl, tu, tt, is_triple = _enumerate(
                        low[c0:c1], first_u[c0:c1], reps[c0:c1], off[:-1],
                        rows, indices, keys, n,
                    )
                    if modified:  # the candidates MILU drops: l, u and row
                        miss = np.flatnonzero(~is_triple)
                        m_bounds = np.searchsorted(miss, off).tolist()
                        ml, mu = tl[miss], tu[miss]
                        mrow = rows[ml]
                    hit = np.flatnonzero(is_triple)
                    bounds = np.searchsorted(hit, off).tolist()
                    tl, tu, tt = tl[hit], tu[hit], tt[hit]
                q = min(end, c1)
                a, b = bounds[p - c0], bounds[q - c0]
                if a < b:
                    lik = data[tl[a:b]] / piv
                    targets, ukj = tt[a:b], data[tu[a:b]]
                    if np.count_nonzero(lik) != b - a:
                        keep = lik != 0.0  # repro: noqa(RPR001) — the reference's exact-zero skip
                        lik, targets, ukj = lik[keep], targets[keep], ukj[keep]
                    data[targets] = data[targets] - lik * ukj
                if modified:
                    a, b = m_bounds[p - c0], m_bounds[q - c0]
                    if a < b:
                        lik = data[ml[a:b]] / piv
                        keep = lik != 0.0  # repro: noqa(RPR001) — the reference's exact-zero skip
                        mass = lik[keep] * data[mu[a:b][keep]]
                        np.add.at(dropped, mrow[a:b][keep], mass)
                p = q
        # every L entry is final once its pivot is: divide them all at once
        data[low] /= data[dpos][kk]
    return data, floored
