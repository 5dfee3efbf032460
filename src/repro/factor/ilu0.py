"""Zero fill-in incomplete LU — ILU(0).

The IKJ row variant restricted to the sparsity pattern of A (Saad, Alg.
10.4): eliminating row i against each earlier row k named by its own lower
pattern, updating only positions already present in row i.  Block 1 uses one
ILU(0) per subdomain; Schur 2 uses a distributed ILU(0) on the expanded Schur
system.

This module is the orchestrator: it validates input, consults the
content-addressed factor cache (:mod:`repro.factor.cache`), runs the
update-triple sweep (:mod:`repro.kernels.triples`), MILU's dropped mass and
a live fault plan's pivot hooks included, and assembles the result.  Only
a forced ``"reference"`` tier runs the scalar kernel
(:mod:`repro.factor.reference`), which the sweep matches bit for bit.
"""

from __future__ import annotations

import scipy.sparse as sp

from repro import faults, kernels
from repro.analysis.sanitize.fp import kernel_guard
from repro.factor import cache as factor_cache
from repro.factor.base import FactorStats, ILUFactorization, check_breakdown
from repro.factor.reference import ilu0_reference
from repro.kernels import triples
from repro.utils.validation import check_square, ensure_csr

__all__ = ["ilu0"]


def ilu0(
    a: sp.csr_matrix,
    modified: bool = False,
    *,
    shift: float = 0.0,
    breakdown_frac: float | None = None,
) -> ILUFactorization:
    """Compute the ILU(0) factorization of ``a``.

    Rows must have a stored diagonal (always true for FE matrices after
    boundary treatment).  A pivot that collapses below ``1e-12`` times the
    row norm is replaced by a sign-preserving floor — the usual safeguard
    against breakdown on indefinite rows.  Floored pivots are counted in the
    returned factorization's ``stats``; when ``breakdown_frac`` is set and
    more than that fraction of rows needed flooring, the factorization is
    untrustworthy and a :class:`FactorizationBreakdown` is raised instead.

    ``shift`` adds ``shift`` to every diagonal entry before elimination
    (factor A + shift·I) — the classical remedy after a breakdown.

    ``modified=True`` gives MILU(0): every update that falls outside the
    pattern is subtracted from the row's diagonal instead of being dropped,
    so the factorization preserves row sums ((LU)·1 = A·1).  For elliptic
    problems MILU's condition number is O(h⁻¹) vs ILU's O(h⁻²) — the
    classical Gustafsson result (ablation bench A7).
    """
    a = ensure_csr(a)
    check_square(a, "a")
    n = a.shape[0]
    plan = faults.active()
    if plan is not None and not plan.pivot_faults_possible():
        plan = None  # an exhausted or non-pivot plan cannot touch this factorization
    forced = kernels.get_tier()
    bypass = "fault-plan" if plan is not None else "forced-tier" if forced else None

    cache = factor_cache.get_cache()
    key, fac = cache.lookup("ilu0", a, (bool(modified), float(shift)), bypass)
    if fac is not None:
        check_breakdown("ilu0", fac.stats.floored_pivots, n, breakdown_frac, shift)
        return fac

    tier = forced or "numpy"
    with kernel_guard(f"factor.ilu0.{tier}"):
        if tier == "reference":
            lu_data, floored = ilu0_reference(a, modified, shift)
        else:
            lu_data, floored = triples.ilu0_factor(
                n, a.indptr, a.indices, a.data, shift, modified, plan
            )

    check_breakdown("ilu0", floored, n, breakdown_frac, shift)
    lu = sp.csr_matrix((lu_data, a.indices.copy(), a.indptr.copy()), shape=a.shape)
    l_strict = sp.tril(lu, k=-1, format="csr")
    u_upper = sp.triu(lu, k=0, format="csr")
    stats = FactorStats(n=n, floored_pivots=floored, shift=shift)
    fac = ILUFactorization(l_strict, u_upper, stats=stats)
    if key is not None:
        cache.put(key, fac)
    return fac
