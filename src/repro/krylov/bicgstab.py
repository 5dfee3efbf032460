"""BiCGStab — the stabilized bi-conjugate gradient method.

pARMS (the library the paper couples to Diffpack) offers BiCGStab alongside
FGMRES as an accelerator for unsymmetric systems; it trades GMRES's long
recurrence (and its restart compromises) for a three-term recurrence with two
matvecs per iteration.  Provided here both for completeness of the accelerator
suite and for the accelerator-comparison ablation bench.

Right-preconditioned van der Vorst formulation; the convergence monitor sees
the true-system residual norms.  Note that a *fixed* preconditioner is
required (BiCGStab has no flexible variant) — the block preconditioners
qualify, the Schur-enhanced ones only with frozen inner iteration counts,
which is how this library always runs them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.krylov.monitors import ConvergenceMonitor, KrylovResult
from repro.krylov.ops import KernelOps, SerialOps

_BREAKDOWN = 1e-30


def bicgstab(
    apply_a: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    apply_m: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    rtol: float = 1e-6,
    atol: float = 0.0,
    maxiter: int = 1000,
    ops: KernelOps | None = None,
    apply_ma: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
) -> KrylovResult:
    """Solve ``A x = b`` with right-preconditioned BiCGStab.

    One "iteration" performs both half-steps (two matvecs, two
    preconditioner applications), matching the usual reporting convention.
    ``apply_ma`` optionally fuses each precondition+matvec pair (see
    :func:`repro.krylov.fgmres.fgmres`); it must agree with
    ``apply_m``/``apply_a`` composed.
    """
    ops = ops or SerialOps()
    mon = ConvergenceMonitor(rtol=rtol, atol=atol)
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
    precond = apply_m if apply_m is not None else (lambda r: r)

    r = b - apply_a(x)
    ops.charge_local_axpy()
    rnorm = ops.norm(r)
    if mon.start(rnorm) or rnorm <= mon.threshold:
        return KrylovResult(x=x, iterations=0, status="converged", residuals=mon.residuals)

    r_shadow = r.copy()
    rho_old = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    iters = 0
    status = "maxiter"
    converged = False

    while iters < maxiter:
        rho = ops.dot(r_shadow, r)
        if not np.isfinite(rho):
            status = "diverged"
            break
        if abs(rho) < _BREAKDOWN or abs(omega) < _BREAKDOWN:
            status = "breakdown"  # serious breakdown: return best-so-far honestly
            break
        beta = (rho / rho_old) * (alpha / omega)
        p = r + beta * (p - omega * v)
        ops.charge_local_axpy(2)
        if apply_ma is not None:
            phat, v = apply_ma(p)
        else:
            phat = precond(p)
            v = apply_a(phat)
        denom = ops.dot(r_shadow, v)
        if abs(denom) < _BREAKDOWN:
            status = "breakdown"
            break
        alpha = rho / denom
        s = r - alpha * v
        ops.charge_local_axpy()
        iters += 1
        if mon.check(ops.norm(s)):
            x += alpha * phat
            ops.charge_local_axpy()
            converged = True
            break
        if mon.diverged():
            status = "diverged"
            break
        if apply_ma is not None:
            shat, t = apply_ma(s)
        else:
            shat = precond(s)
            t = apply_a(shat)
        tt = ops.dot(t, t)
        if tt < _BREAKDOWN:
            x += alpha * phat
            ops.charge_local_axpy()
            status = "breakdown"
            break
        omega = ops.dot(t, s) / tt
        x += alpha * phat + omega * shat
        r = s - omega * t
        ops.charge_local_axpy(3)
        if mon.check(ops.norm(r)):
            converged = True
            break
        if mon.diverged():
            status = "diverged"
            break
        rho_old = rho

    if not converged and status != "diverged":
        # report the true residual on exit (estimates may have drifted)
        true_norm = ops.norm(b - apply_a(x))
        ops.charge_local_axpy()
        mon.residuals[-1] = true_norm
        converged = true_norm <= mon.threshold
    if converged:
        status = "converged"
    return KrylovResult(x=x, iterations=iters, status=status, residuals=mon.residuals)
