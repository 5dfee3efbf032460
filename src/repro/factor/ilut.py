"""Dual-threshold incomplete LU — ILUT(τ, p).

Saad's row-wise ILUT (Alg. 10.6): each row is eliminated against the already
computed U rows with fill-in allowed, then pruned by the dual rule — drop
entries below τ times the row's 2-norm, and keep at most p largest entries in
the L part and p largest (plus the diagonal) in the U part.  Block 2 and the
subdomain solves of Schur 1 are built on this factorization.

This module is the orchestrator: it validates input, consults the
content-addressed factor cache (:mod:`repro.factor.cache`), runs the window
sweep (:mod:`repro.kernels.band`), a live fault plan's pivot hooks
included, and assembles the result.  The scalar kernel
(:mod:`repro.factor.reference`) runs only under a forced ``"reference"``
tier or for a matrix whose best window is over ``BAND_MEM_CAP``; the sweep
matches it bit for bit, |value| ties in the fill-cap selection included:
both keep the smaller column.
"""

from __future__ import annotations

import scipy.sparse as sp

from repro import faults, kernels
from repro.analysis.sanitize.fp import kernel_guard
from repro.factor import cache as factor_cache
from repro.factor.base import FactorStats, ILUFactorization, check_breakdown
from repro.factor.reference import ilut_reference
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
    if plan is not None and not plan.pivot_faults_possible():
        plan = None  # an exhausted or non-pivot plan cannot touch this factorization
    forced = kernels.get_tier()
    bypass = "fault-plan" if plan is not None else "forced-tier" if forced else None

    cache = factor_cache.get_cache()
    params = (float(drop_tol), int(fill), float(shift))
    key, fac = cache.lookup("ilut", a, params, bypass)
    if fac is not None:
        check_breakdown("ilut", fac.stats.floored_pivots, n, breakdown_frac, shift)
        return fac

    tier = "reference"
    if forced != "reference":
        s, bw, nbytes = band.window(n, a.indptr, a.indices, kernels.BAND_MEM_CAP)
        if nbytes <= kernels.BAND_MEM_CAP:  # else no window fits: the scalar kernel
            tier = "numpy"
    with kernel_guard(f"factor.ilut.{tier}"):
        if tier == "reference":
            l_csr, u_strict, u_diag, floored = ilut_reference(a, drop_tol, fill, shift)
            u_upper = (u_strict + sp.diags(u_diag, format="csr")).tocsr()
        else:
            norms = band.row_norms2(n, a.indptr, a.data)
            (l_indptr, l_indices, l_data,
             u_indptr, u_indices, u_data, floored) = band.ilut_factor(
                n, a.indptr, a.indices, a.data, drop_tol, fill, shift, norms,
                (s, bw), plan,
            )
            l_csr = sp.csr_matrix((l_data, l_indices, l_indptr), shape=a.shape)
            u_upper = sp.csr_matrix((u_data, u_indices, u_indptr), shape=a.shape)

    check_breakdown("ilut", floored, n, breakdown_frac, shift)
    stats = FactorStats(n=n, floored_pivots=floored, shift=shift)
    fac = ILUFactorization(l_csr, ensure_csr(u_upper), stats=stats)
    if key is not None:
        cache.put(key, fac)
    return fac
