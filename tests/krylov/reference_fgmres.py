"""The one-system FGMRES loop that ``fgmres`` was before the cycle was
written once — kept as the oracle ``fgmres`` and ``fgmres_lockstep`` are
byte-compared against, the way ``loop_schur1_apply`` keeps Schur 1's
per-rank loop.

Word for word the deleted body, less its ``monitor=`` argument and the
stall-window branch only a hand-built monitor could arm, and with
``on_restart`` called only at the end of a cycle that does not converge
(nothing resumes from a converged one); it shares the MGS + Givens step and
the back-substitution with the cycle, as it did then.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro import obs
from repro.krylov.fgmres import _arnoldi_column, _back_substitute
from repro.krylov.monitors import ConvergenceMonitor, KrylovResult
from repro.krylov.ops import KernelOps, SerialOps


def reference_fgmres(
    apply_a: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    apply_m: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    restart: int = 20,
    rtol: float = 1e-6,
    atol: float = 0.0,
    maxiter: int = 1000,
    ops: KernelOps | None = None,
    on_restart: Callable[[int, np.ndarray, float], None] | None = None,
    apply_ma: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
) -> KrylovResult:
    """Solve ``A x = b`` with restarted flexible GMRES.

    Parameters
    ----------
    apply_a:
        The operator x → A x.
    apply_m:
        The (possibly iteration-varying) right preconditioner r → M^{-1} r;
        identity when omitted.
    apply_ma:
        Optional fused step v → (M^{-1} v, A M^{-1} v) used for the inner
        Arnoldi expansion; must agree with ``apply_m``/``apply_a`` composed.  ``apply_a`` is
        still required for the initial and restart residuals.
    restart:
        Krylov cycle length m (paper default 20).
    rtol:
        Relative residual reduction target (paper: 1e-6).
    on_restart:
        Called as ``on_restart(iterations, x, r0_norm)`` after the
        true-residual recompute at the end of each cycle that ends
        unconverged, once the iterate is known to be finite; ``r0_norm`` is
        the first residual norm.  The checkpoint hook: callers
        snapshot ``x`` here so a later fault can resume from the last
        completed cycle; a converged cycle's iterate is returned, not
        snapshotted.
    """
    if restart < 1:
        raise ValueError("restart must be >= 1")
    ops = ops or SerialOps()
    mon = ConvergenceMonitor(rtol=rtol, atol=atol)
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
    precond = apply_m if apply_m is not None else (lambda r: r)

    r = b - apply_a(x)
    ops.charge_local_axpy()
    beta = ops.norm(r)
    if not math.isfinite(beta):
        # the operator (or x0) is already producing non-finite values
        obs.event("resilience.detected", kind="diverged", where="fgmres.r0")
        mon.start(beta)
        return KrylovResult(x=x, iterations=0, status="diverged", residuals=mon.residuals)
    if mon.start(beta) or beta <= mon.threshold:
        return KrylovResult(x=x, iterations=0, status="converged", residuals=mon.residuals)

    iters = 0
    status = "maxiter"
    converged = False
    while iters < maxiter and not converged:
        m = restart
        V = np.zeros((m + 1, n))
        Z = np.zeros((m, n))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        V[0] = r / beta
        g[0] = beta
        j_used = 0
        breakdown = False

        for j in range(m):
            if apply_ma is not None:
                Z[j], w = apply_ma(V[j])
            else:
                Z[j] = precond(V[j])
                w = apply_a(Z[j])
            # copy: apply_a may return its argument (e.g. identity operators),
            # and the MGS updates modify w in place
            w = np.array(w, dtype=np.float64, copy=True)
            h_next, breakdown = _arnoldi_column(w, V, H, cs, sn, g, j, ops)
            if not math.isfinite(h_next):
                # the Hessenberg update went non-finite (NaN operator output,
                # overflow in the orthogonalization): propagating it through
                # the Givens rotations would poison x — return the last
                # finite iterate with an honest classification instead
                obs.event(
                    "resilience.detected", kind="diverged",
                    where="fgmres.hessenberg", iteration=iters,
                )
                mon.residuals.append(float(h_next))
                return KrylovResult(
                    x=x, iterations=iters, status="diverged",
                    residuals=mon.residuals,
                )

            iters += 1
            j_used = j + 1
            if mon.check(abs(g[j + 1])):
                converged = True
                break
            if breakdown or iters >= maxiter:
                break

        # solve the small triangular system and update x from the Z basis
        k = j_used
        y = _back_substitute(H, g, k)
        x_prev = x.copy()
        x += Z[:k].T @ y
        ops.charge_local_axpy(k)

        # the in-cycle estimate can be wrong under breakdown with a singular
        # projected system, so convergence is always re-validated against the
        # true residual at the end of a cycle
        beta_prev = beta
        r = b - apply_a(x)
        ops.charge_local_axpy()
        beta = ops.norm(r)
        mon.residuals[-1] = beta  # replace the estimate with the true norm
        obs.event("krylov.restart", iterations=iters, residual=float(beta))
        if mon.diverged():
            # non-finite or exploded true residual: the cycle update is
            # untrustworthy — hand back the previous (finite) iterate
            obs.event(
                "resilience.detected", kind="diverged",
                where="fgmres.restart", iteration=iters,
            )
            return KrylovResult(
                x=x_prev, iterations=iters, status="diverged",
                residuals=mon.residuals,
            )
        converged = beta <= mon.threshold
        if not converged:
            if on_restart is not None:
                on_restart(iters, x, mon.residuals[0])
            if breakdown and beta >= beta_prev * (1.0 - 1e-12):
                status = "stagnated"  # Krylov space exhausted with no progress
                break

    if converged:
        status = "converged"
    return KrylovResult(x=x, iterations=iters, status=status, residuals=mon.residuals)
