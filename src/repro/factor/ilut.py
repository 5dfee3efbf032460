"""Dual-threshold incomplete LU — ILUT(τ, p).

Saad's row-wise ILUT (Alg. 10.6): each row is eliminated against the already
computed U rows with fill-in allowed, then pruned by the dual rule — drop
entries below τ times the row's 2-norm, and keep at most p largest entries in
the L part and p largest (plus the diagonal) in the U part.  Block 2 and the
subdomain solves of Schur 1 are built on this factorization.

This module is the orchestrator: it validates input, consults the
content-addressed factor cache (:mod:`repro.factor.cache`), dispatches to a
kernel (:mod:`repro.kernels`), and assembles the result.  Active pivot fault
plans are pinned to the reference kernel (:mod:`repro.factor.reference`);
the window sweep (:mod:`repro.kernels.band`) matches it bit for bit, |value|
ties in the fill-cap selection included: both keep the smaller column.
"""

from __future__ import annotations

import scipy.sparse as sp

from repro import faults, kernels
from repro.analysis.sanitize.fp import kernel_guard
from repro.factor import cache as factor_cache
from repro.factor.base import FactorStats, ILUFactorization
from repro.factor.reference import _check_breakdown, ilut_reference
from repro.kernels import band
from repro.utils.validation import check_square, ensure_csr

__all__ = ["ilut"]


def ilut(
    a: sp.csr_matrix,
    drop_tol: float = 1e-3,
    fill: int = 10,
    *,
    shift: float = 0.0,
    breakdown_frac: float | None = None,
) -> ILUFactorization:
    """Compute ILUT(τ=``drop_tol``, p=``fill``) of ``a``.

    ``fill`` bounds the number of off-diagonal entries kept per row in each
    of L and U.  Zero pivots are floored to preserve solvability; floors are
    counted in the result's ``stats`` and, when ``breakdown_frac`` is set
    and exceeded, reported as a :class:`FactorizationBreakdown` (see
    :func:`repro.factor.ilu0.ilu0` for the contract).  ``shift`` factors
    A + shift·I instead of A.
    """
    a = ensure_csr(a)
    check_square(a, "a")
    if drop_tol < 0:
        raise ValueError("drop_tol must be >= 0")
    if fill < 1:
        raise ValueError("fill must be >= 1")
    n = a.shape[0]
    plan = faults.active()
    # an exhausted or non-pivot fault plan cannot corrupt this factorization,
    # so only a live pivot spec forces the reference tier and a cache bypass
    pivot_faults = plan is not None and plan.pivot_faults_possible()

    bw = band.bandwidth(n, a.indptr, a.indices)
    tier = kernels.resolve(band.window_bytes(n, bw), require_reference=pivot_faults)
    family = "reference" if tier == "reference" else "band"

    cache = factor_cache.get_cache()
    key = None
    if pivot_faults:
        if cache.enabled:
            cache.note_bypass("ilut", reason="fault-plan")
    elif cache.enabled:
        key = cache.key(
            "ilut", a, (float(drop_tol), int(fill), float(shift)), family
        )
        fac = cache.get(key, "ilut")
        if fac is not None:
            _check_breakdown(
                "ilut", fac.stats.floored_pivots, n, breakdown_frac, shift
            )
            return fac

    with kernel_guard(f"factor.ilut.{tier}"):
        if tier == "reference":
            l_csr, u_strict, u_diag, floored = ilut_reference(a, drop_tol, fill, shift)
            _check_breakdown("ilut", floored, n, breakdown_frac, shift)
            u_upper = (u_strict + sp.diags(u_diag, format="csr")).tocsr()
        else:
            norms = band.row_norms2(n, a.indptr, a.data)
            (l_indptr, l_indices, l_data,
             u_indptr, u_indices, u_data, floored) = band.ilut_factor(
                n, a.indptr, a.indices, a.data, drop_tol, fill, shift, norms
            )
            _check_breakdown("ilut", floored, n, breakdown_frac, shift)
            l_csr = sp.csr_matrix((l_data, l_indices, l_indptr), shape=a.shape)
            u_upper = sp.csr_matrix((u_data, u_indices, u_indptr), shape=a.shape)

    stats = FactorStats(n=n, floored_pivots=floored, shift=shift)
    fac = ILUFactorization(l_csr, ensure_csr(u_upper), stats=stats)
    if key is not None:
        cache.put(key, fac)
    return fac
