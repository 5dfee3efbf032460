"""Flexible GMRES with restart — FGMRES(m).

The paper's outer solver (Sec. 4.3: "(F)GMRES iterations (with m = 20)").
Flexibility is required because the Schur-enhanced preconditioners run inner
GMRES iterations, so the preconditioner changes from one outer iteration to
the next; FGMRES stores the preconditioned vectors Z_j and reconstructs the
solution from them (Saad, Alg. 9.6).

Right preconditioning means the monitored quantity is the *true* system
residual ‖b − A x‖ (estimated by the least-squares residual during a cycle
and recomputed exactly at each restart).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.krylov.monitors import ConvergenceMonitor, KrylovResult
from repro.krylov.ops import KernelOps, SerialOps


def _givens(a: float, b: float) -> tuple[float, float]:
    """Stable Givens rotation coefficients (c, s) zeroing b against a."""
    if b == 0.0:  # repro: noqa(RPR001) — exact-zero branch of the Givens formula
        return 1.0, 0.0
    if abs(b) > abs(a):
        t = a / b
        s = 1.0 / np.sqrt(1.0 + t * t)
        return t * s, s
    t = b / a
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, t * c


def _arnoldi_column(
    w: np.ndarray, V: np.ndarray, H: np.ndarray, cs: np.ndarray, sn: np.ndarray,
    g: np.ndarray, j: int, ops: KernelOps,
) -> tuple[float, bool]:
    """Step j of one Arnoldi cycle, after ``w = A M⁻¹ V[j]``.

    Orthogonalises ``w`` (in place) against ``V[:j+1]`` by modified
    Gram-Schmidt into column j of ``H``, stores ``V[j+1]``, applies the
    stored rotations and a new Givens pair to that column and to ``g``.
    Returns ``(h_next, breakdown)``; a non-finite ``h_next`` returns at once,
    with ``H``, ``V`` and ``g`` past the dots left as they were.
    """
    for i in range(j + 1):
        H[i, j] = ops.dot(w, V[i])
        w -= H[i, j] * V[i]
    ops.charge_local_axpy(j + 1)
    h_next = ops.norm(w)
    if not math.isfinite(h_next):
        return h_next, False
    H[j + 1, j] = h_next
    breakdown = h_next == 0.0  # repro: noqa(RPR001) — lucky breakdown is exactly zero
    if not breakdown:
        V[j + 1] = w / h_next

    # apply stored rotations, then the new one
    for i in range(j):
        hi = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
        H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
        H[i, j] = hi
    cs[j], sn[j] = _givens(H[j, j], H[j + 1, j])
    H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
    H[j + 1, j] = 0.0
    g[j + 1] = -sn[j] * g[j]
    g[j] = cs[j] * g[j]
    return h_next, breakdown


def _back_substitute(H: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """The least-squares coefficients of a k-step cycle: R y = g, R = H[:k, :k].

    A zero R diagonal means the projected operator is singular (A is
    singular along this Krylov direction) — that component is skipped
    rather than divided by zero.
    """
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        if H[i, i] == 0.0:  # repro: noqa(RPR001) — exact-zero pivot skip; a tolerance would change iterates
            y[i] = 0.0
            continue
        y[i] = (g[i] - H[i, i + 1 : k] @ y[i + 1 : k]) / H[i, i]
    return y


def fgmres(
    apply_a: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    apply_m: Callable[[np.ndarray], np.ndarray] | None = None,
    x0: np.ndarray | None = None,
    restart: int = 20,
    rtol: float = 1e-6,
    atol: float = 0.0,
    maxiter: int = 1000,
    ops: KernelOps | None = None,
    monitor: ConvergenceMonitor | None = None,
    on_restart: Callable[[int, np.ndarray], None] | None = None,
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
        Arnoldi expansion (e.g. ``ParallelPreconditioner.apply_matvec``);
        must agree with ``apply_m``/``apply_a`` composed.  ``apply_a`` is
        still required for the initial and restart residuals.
    restart:
        Krylov cycle length m (paper default 20).
    rtol:
        Relative residual reduction target (paper: 1e-6).
    on_restart:
        Called as ``on_restart(iterations, x)`` after the true-residual
        recompute at the end of each cycle, once the iterate is known to be
        finite.  The checkpoint hook: callers snapshot ``x`` here so a later
        fault can resume from the last completed cycle.
    """
    if restart < 1:
        raise ValueError("restart must be >= 1")
    ops = ops or SerialOps()
    mon = monitor or ConvergenceMonitor(rtol=rtol, atol=atol)
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
        if on_restart is not None:
            on_restart(iters, x)
        converged = beta <= mon.threshold
        if not converged:
            if breakdown and beta >= beta_prev * (1.0 - 1e-12):
                status = "stagnated"  # Krylov space exhausted with no progress
                break
            if mon.stagnated():
                obs.event(
                    "resilience.detected", kind="stagnated",
                    where="fgmres.restart", iteration=iters,
                )
                status = "stagnated"
                break

    if converged:
        status = "converged"
    return KrylovResult(x=x, iterations=iters, status=status, residuals=mon.residuals)


class _Run:
    """One system of :func:`fgmres_lockstep`: what ``fgmres`` keeps in locals."""

    def __init__(self, sl: slice, ops: KernelOps, rtol: float) -> None:
        self.sl = sl
        self.ops = ops
        self.mon = ConvergenceMonitor(rtol=rtol)
        self.iters = 0
        self.beta = 0.0
        self.breakdown = False
        self.result: KrylovResult | None = None

    def residual_norm(self, r: np.ndarray) -> float:
        self.ops.charge_local_axpy()
        return self.ops.norm(r[self.sl])

    def begin_cycle(self, V: np.ndarray, r: np.ndarray, m: int) -> None:
        self.H = np.zeros((m + 1, m))
        self.cs = np.zeros(m)
        self.sn = np.zeros(m)
        self.g = np.zeros(m + 1)
        V[0, self.sl] = r[self.sl] / self.beta
        self.g[0] = self.beta
        self.j_used = 0

    def finish(self, x: np.ndarray, status: str) -> None:
        self.result = KrylovResult(
            x=x[self.sl], iterations=self.iters, status=status,
            residuals=self.mon.residuals,
        )


def fgmres_lockstep(
    apply_a: Callable[[np.ndarray, list[int]], np.ndarray],
    b: np.ndarray,
    bounds: Sequence[int],
    apply_m: Callable[[np.ndarray, list[int]], np.ndarray],
    ops: Sequence[KernelOps],
    restart: int,
    rtol: float,
    maxiter: int,
) -> tuple[np.ndarray, list[KrylovResult]]:
    """:func:`fgmres` on independent systems at once, one operator call per step.

    System s is rows ``bounds[s]:bounds[s+1]`` of a block-diagonal operator
    and preconditioner.  ``apply_a(v, live)`` and ``apply_m(v, live)`` act on
    the whole stacked vector in one call; ``live`` lists, ascending, the
    systems whose own ``fgmres`` would have made that call, so the callee
    charges them and only them.  Everything else is per system and is
    ``fgmres``'s: its Hessenberg, Givens pairs, default
    :class:`ConvergenceMonitor` and ``ops[s]``, whose dots and norms see only
    the system's contiguous slice (the same BLAS call on the same bytes); its
    update ``Z[:k]ᵀ y`` is the same gemv on a contiguous copy of its slice.
    Result s is therefore bitwise ``fgmres(A_s, b_s, M_s, restart=restart,
    rtol=rtol, maxiter=maxiter, ops=ops[s])`` — x, iterations, status,
    residual history, charges and events; the events interleave across
    systems and keep their order within each.

    A system leaves the stepping by masking — it converged, broke down,
    reached ``maxiter``, diverged or started at an exactly-zero right-hand
    side — and its slices of the basis are zeroed, so nothing stale flows
    through the calls that follow.  A system with no rows is not solved: no
    call, no charge, no event (status ``converged``, empty history).
    Returns the stacked x and the per-system results, whose ``x`` are views
    of it.
    """
    if restart < 1:
        raise ValueError("restart must be >= 1")
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    x = np.zeros(n)
    runs = [
        _Run(slice(lo, hi), o, rtol)
        for lo, hi, o in zip(bounds[:-1], bounds[1:], ops)
    ]
    for run in runs:
        if run.sl.stop == run.sl.start:
            run.finish(x, "converged")
    live = [s for s, run in enumerate(runs) if run.result is None]
    if not live:
        return x, [run.result for run in runs]

    r = b - apply_a(x, live)
    for s in live:
        run = runs[s]
        run.beta = run.residual_norm(r)
        if not math.isfinite(run.beta):
            obs.event("resilience.detected", kind="diverged", where="fgmres.r0")
            run.mon.start(run.beta)
            run.finish(x, "diverged")
        elif run.mon.start(run.beta) or run.beta <= run.mon.threshold:
            run.finish(x, "converged")
    live = [s for s in live if runs[s].result is None]

    m = restart
    while live:
        V = np.zeros((m + 1, n))
        Z = np.zeros((m, n))
        for s in live:
            runs[s].begin_cycle(V, r, m)
        stepping = live
        for j in range(m):
            Z[j] = apply_m(V[j], stepping)
            # copy: the MGS updates modify each slice in place
            w = np.array(apply_a(Z[j], stepping), dtype=np.float64, copy=True)
            still = []
            for s in stepping:
                run = runs[s]
                h_next, run.breakdown = _arnoldi_column(
                    w[run.sl], V[:, run.sl], run.H, run.cs, run.sn, run.g, j, run.ops,
                )
                if not math.isfinite(h_next):
                    obs.event(
                        "resilience.detected", kind="diverged",
                        where="fgmres.hessenberg", iteration=run.iters,
                    )
                    run.mon.residuals.append(float(h_next))
                    run.finish(x, "diverged")
                    continue
                run.iters += 1
                run.j_used = j + 1
                if run.mon.check(abs(run.g[j + 1])) or run.breakdown or run.iters >= maxiter:
                    V[j + 1, run.sl] = 0.0
                else:
                    still.append(s)
            stepping = still
            if not stepping:
                break

        # the end of the cycle, for every system that finished it
        live = [s for s in live if runs[s].result is None]
        if not live:
            break
        x_prev = {}
        for s in live:
            run = runs[s]
            k = run.j_used
            y = _back_substitute(run.H, run.g, k)
            x_prev[s] = x[run.sl].copy()
            x[run.sl] += np.ascontiguousarray(Z[:k, run.sl]).T @ y
            run.ops.charge_local_axpy(k)
        r = b - apply_a(x, live)
        for s in live:
            run = runs[s]
            beta_prev = run.beta
            run.beta = run.residual_norm(r)
            run.mon.residuals[-1] = run.beta
            obs.event("krylov.restart", iterations=run.iters, residual=float(run.beta))
            if run.mon.diverged():
                obs.event(
                    "resilience.detected", kind="diverged",
                    where="fgmres.restart", iteration=run.iters,
                )
                x[run.sl] = x_prev[s]
                run.finish(x, "diverged")
            elif run.beta <= run.mon.threshold:
                run.finish(x, "converged")
            elif run.breakdown and run.beta >= beta_prev * (1.0 - 1e-12):
                run.finish(x, "stagnated")
            elif run.iters >= maxiter:
                run.finish(x, "maxiter")
        live = [s for s in live if runs[s].result is None]

    return x, [run.result for run in runs]
