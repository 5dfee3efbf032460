"""Preconditioned Conjugate Gradient.

Used for the symmetric positive definite pieces: the additive Schwarz
comparison's subdomain solver is "one Conjugate Gradient iteration
accelerated by a special FFT-based preconditioner" (paper Sec. 5.2).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.krylov.monitors import ConvergenceMonitor, KrylovResult
from repro.krylov.ops import KernelOps, SerialOps


def cg(
    apply_a: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    apply_m: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    rtol: float = 1e-6,
    atol: float = 0.0,
    maxiter: int = 1000,
    ops: KernelOps | None = None,
) -> KrylovResult:
    """Solve SPD ``A x = b`` with (preconditioned) conjugate gradients."""
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

    z = precond(r)
    p = z.copy()
    rz = ops.dot(r, z)
    iters = 0
    status = "maxiter"
    while iters < maxiter:
        ap = apply_a(p)
        pap = ops.dot(p, ap)
        if not np.isfinite(pap):
            status = "diverged"
            break
        if pap <= 0.0:
            status = "breakdown"  # operator not SPD along p: bail out honestly
            break
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        ops.charge_local_axpy(2)
        iters += 1
        if mon.check(ops.norm(r)):
            status = "converged"
            break
        if mon.diverged():
            status = "diverged"
            break
        z = precond(r)
        rz_new = ops.dot(r, z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
        ops.charge_local_axpy()
    return KrylovResult(x=x, iterations=iters, status=status, residuals=mon.residuals)
