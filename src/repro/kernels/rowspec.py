"""Scalar row-by-row ILUT elimination sweep — the readable specification.

:func:`ilut_sweep` mirrors the vectorized sweep in :mod:`repro.kernels.band`
element for element: the same ascending-k elimination order, the same
multiply-then-subtract update (no fused multiply-add), the same
mask-by-multiplication dropping, the same sign-preserving pivot floor.
It therefore produces a *bit-identical* band workspace, which the unit
tests assert.  Keep any edit here semantically in lockstep with
``band.ilut_sweep``.
"""

from __future__ import annotations

import numpy as np

_PIVOT_FLOOR = 1e-12


def ilut_sweep(wst, n, bw, fill, taus, norms):
    """Scalar ILUT(τ, p) elimination over the band workspace ``wst``."""
    a_up = np.empty(bw)
    keep = np.empty(bw, dtype=np.bool_)
    floored = 0

    for k in range(n):
        nf = bw if k + bw < n else n - 1 - k
        tau = taus[k]

        # ---- dual-threshold selection of row k's upper part, in place ----
        if nf > 0:
            m = 0
            for j in range(nf):
                a_up[j] = abs(wst[k, bw + 1 + j])
                keep[j] = a_up[j] > tau
                if keep[j]:
                    m += 1
            if m > fill:
                cutoff = np.sort(a_up[:nf])[nf - fill]
                m = 0
                for j in range(nf):
                    keep[j] = a_up[j] >= cutoff
                    if keep[j]:
                        m += 1
                if m > fill:
                    need = fill
                    for j in range(nf):
                        keep[j] = a_up[j] > cutoff
                        if keep[j]:
                            need -= 1
                    for j in range(nf):
                        if need <= 0:
                            break
                        if a_up[j] == cutoff:
                            keep[j] = True
                            need -= 1
            for j in range(nf):
                wst[k, bw + 1 + j] = wst[k, bw + 1 + j] * keep[j]

        # ---- sign-preserving pivot floor ----
        diag = wst[k, bw]
        lim = _PIVOT_FLOOR * norms[k]
        if -lim < diag < lim:
            floored += 1
            diag = lim if diag >= 0 else -lim
            wst[k, bw] = diag

        # ---- rank-1 update of the future parallelogram ----
        for r in range(nf):
            f = k + 1 + r
            lik = wst[f, bw - 1 - r] / diag
            lik = lik * (abs(lik) > taus[f])
            wst[f, bw - 1 - r] = lik
            for j in range(nf):
                wst[f, bw - r + j] = wst[f, bw - r + j] - lik * wst[k, bw + 1 + j]

    return floored
