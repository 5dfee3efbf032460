"""Array-native ILU(0) kernel: one right-looking sweep over update triples.

ILU(0) never changes the pattern, so every update it will ever make is
known up front: a triple ``(i, k, j)`` with ``(i, k)`` below the diagonal,
``(k, j)`` above it and ``(i, j)`` stored.  They are enumerated once from
the sorted CSR keys (``repeat`` for the candidates, ``searchsorted`` for the
target positions), grouped by pivot k, and swept k = 0 … n-1: floor pivot k,
then one gather–multiply–subtract–scatter over the group.  Within a group
every target is distinct, and an entry meets its pivots in ascending k — the
same sequence of ``x - lik * ukj`` (an exactly-zero ``lik`` skipped) as the
reference row loop applies, so the factors are bit-identical to
:func:`repro.factor.reference.ilu0_reference`.  Grouping by elimination
*level* instead would be faster to sweep and is not: it reorders the updates
an entry receives (docs/algorithms.md).

Hook-free like :mod:`repro.kernels.band`: MILU and live pivot fault plans
stay on the reference kernel.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.sanitize.fp import kernel_guard
from repro.kernels.band import counts_to_indptr, csr_row_ids

_PIVOT_FLOOR = 1e-12
# candidate triples enumerated at a time: bounds the index scratch (64 KiB
# per array), however many triples the matrix has
_CHUNK = 1 << 13


def workspace_bytes(n: int, indptr: np.ndarray, indices: np.ndarray) -> int:
    """Index scratch of :func:`ilu0_factor`: five words per candidate triple
    of a chunk, i.e. ``_CHUNK`` of them or the busiest single pivot's."""
    rows = csr_row_ids(n, indptr)
    n_lower = np.bincount(indices[indices < rows], minlength=n)  # per column
    n_upper = np.bincount(rows[indices > rows], minlength=n)  # per row
    return 40 * max(_CHUNK, int((n_lower * n_upper).max(initial=0)))


def _enumerate(low, first_u, reps, starts, rows, indices, keys, n):
    """Update triples of a run of lower entries ``low``.

    Candidates pair every lower entry ``(i, k)`` with every strict-upper
    entry ``(k, j)`` of its pivot row (``reps`` of them from position
    ``first_u``, candidate numbers from ``starts``); a triple is a candidate
    whose target ``(i, j)`` is stored.  Returns the positions of l, u and
    target per triple, and the candidate number of each triple (ascending).
    """
    tl = np.repeat(low, reps)
    tu = np.arange(tl.size, dtype=np.int64)
    tu -= np.repeat(starts - first_u, reps)
    want = rows[tl] * n + indices[tu]
    tt = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    hit = np.flatnonzero(keys[tt] == want)
    return tl[hit], tu[hit], tt[hit], hit


def ilu0_factor(n, indptr, indices, data, shift):
    """ILU(0) of a sorted, duplicate-free CSR matrix: ``(lu_data, floored)``.

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
    col_ptr = np.searchsorted(kk, np.arange(n + 1))
    first_u = dpos[kk] + 1  # the pivot row's strict-upper entries: first position
    reps = indptr[1:][kk] - first_u  # and how many
    keys = rows * n + indices
    with kernel_guard("kernels.triples.ilu0_factor"):
        cand = counts_to_indptr(reps)  # candidates before each lower entry
        cand_ptr = cand[col_ptr]  # and before each column
        norms = np.maximum.reduceat(np.abs(data), indptr[:-1])
        norms[norms <= 0.0] = 1.0  # a max of magnitudes: only exactly-zero rows
        lims = (_PIVOT_FLOOR * norms).tolist()
        dp = dpos.tolist()

        floored = 0
        k0 = 0
        while k0 < n:
            # the next pivots k0..k1-1: as many as fit the scratch, at least one
            fit = np.searchsorted(cand_ptr, cand_ptr[k0] + _CHUNK, side="right") - 1
            k1 = max(k0 + 1, int(fit))
            span = slice(col_ptr[k0], col_ptr[k1])
            tl, tu, tt, hit = _enumerate(
                low[span], first_u[span], reps[span], cand[span] - cand_ptr[k0],
                rows, indices, keys, n,
            )
            bounds = np.searchsorted(hit, cand_ptr[k0: k1 + 1] - cand_ptr[k0]).tolist()

            for k, a, b in zip(range(k0, k1), bounds, bounds[1:]):
                piv = data.item(dp[k])
                lim = lims[k]
                if abs(piv) < lim:
                    floored += 1
                    piv = lim if piv >= 0 else -lim
                    data[dp[k]] = piv
                if a == b:
                    continue
                lik = data[tl[a:b]] / piv
                targets, ukj = tt[a:b], data[tu[a:b]]
                if np.count_nonzero(lik) != b - a:
                    keep = lik != 0.0  # repro: noqa(RPR001) — the reference's exact-zero skip
                    lik, targets, ukj = lik[keep], targets[keep], ukj[keep]
                data[targets] = data[targets] - lik * ukj
            k0 = k1
        # every L entry is final once its pivot is: divide them all at once
        data[low] /= data[dpos][kk]
    return data, floored
