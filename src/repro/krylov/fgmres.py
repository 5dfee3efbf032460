"""Flexible GMRES with restart — FGMRES(m).

The paper's outer solver (Sec. 4.3: "(F)GMRES iterations (with m = 20)").
Flexibility is required because the Schur-enhanced preconditioners run inner
GMRES iterations, so the preconditioner changes from one outer iteration to
the next; FGMRES stores the preconditioned vectors Z_j and reconstructs the
solution from them (Saad, Alg. 9.6).

Right preconditioning means the monitored quantity is the *true* system
residual ‖b − A x‖ (estimated by the least-squares residual during a cycle
and recomputed exactly at each restart).  The restarted cycle is written
once, :func:`_cycle`: :func:`fgmres` is its one-system case and
:func:`fgmres_lockstep` runs it on independent diagonal blocks.
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


class _Run:
    """One system of :func:`_cycle`: its rows, monitor, Hessenberg, Givens."""

    def __init__(self, sl: slice, ops: KernelOps, rtol: float, atol: float) -> None:
        self.sl = sl
        self.ops = ops
        self.mon = ConvergenceMonitor(rtol=rtol, atol=atol)
        self.iters, self.beta, self.breakdown = 0, 0.0, False
        self.result: KrylovResult | None = None

    def residual_norm(self, r: np.ndarray) -> float:
        self.ops.charge_local_axpy()
        return self.ops.norm(r[self.sl])

    def begin_cycle(self, V: np.ndarray, r: np.ndarray, m: int) -> None:
        self.H = np.zeros((m + 1, m))
        self.cs, self.sn = np.zeros(m), np.zeros(m)
        self.g = np.zeros(m + 1)
        V[0, self.sl] = r[self.sl] / self.beta
        self.g[0] = self.beta
        self.j_used = 0

    def finish(self, x: np.ndarray, status: str) -> None:
        self.result = KrylovResult(x[self.sl], self.iters, status, self.mon.residuals)


Step = Callable[[np.ndarray, list[int]], np.ndarray]
FusedStep = Callable[[np.ndarray, list[int]], tuple[np.ndarray, np.ndarray]]


def _cycle(
    apply_a: Step, b: np.ndarray, bounds: Sequence[int], apply_m: Step | None,
    ops: Sequence[KernelOps], restart: int, rtol: float, maxiter: int, *,
    x0: np.ndarray | None = None, atol: float = 0.0,
    on_restart: Callable[[int, np.ndarray], None] | None = None,
    apply_ma: FusedStep | None = None,
) -> tuple[np.ndarray, list[KrylovResult]]:
    """Restarted FGMRES on the systems ``bounds`` cuts ``b`` into, one
    operator call per step for all of them — the package's one cycle.

    System s is rows ``bounds[s]:bounds[s+1]`` of a block-diagonal operator
    and preconditioner.  Every callback acts on the whole stacked vector and
    is passed ``live``, the ascending systems that need the call, so it
    charges them and only them; ``apply_m=None`` is the identity and
    ``apply_ma`` fuses ``z = M⁻¹ v`` with ``A z``.  The rest is per system:
    its monitor, Hessenberg, Givens pairs and ``ops[s]``, whose dots and
    norms see only its contiguous slice; its update ``Z[:k]ᵀ y`` is one gemv
    on a contiguous copy of that slice.  A system leaves the stepping by
    masking — converged, broke down, reached ``maxiter`` or diverged — and
    its slices of the basis are zeroed.  ``maxiter < 1`` takes no step.
    """
    if restart < 1:
        raise ValueError("restart must be >= 1")
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64, copy=True)
    runs = [
        _Run(slice(lo, hi), o, rtol, atol)
        for lo, hi, o in zip(bounds[:-1], bounds[1:], ops)
    ]
    live = list(range(len(runs)))
    if not live:
        return x, []

    r = b - apply_a(x, live)
    for s in live:
        run = runs[s]
        run.beta = run.residual_norm(r)
        if not math.isfinite(run.beta):
            # the operator (or x0) is already producing non-finite values
            obs.event("resilience.detected", kind="diverged", where="fgmres.r0")
            run.mon.start(run.beta)
            run.finish(x, "diverged")
        elif run.mon.start(run.beta) or run.beta <= run.mon.threshold:
            run.finish(x, "converged")
        elif maxiter < 1:
            run.finish(x, "maxiter")
    live = [s for s in live if runs[s].result is None]

    m = restart
    while live:
        V = np.zeros((m + 1, n))
        Z = np.zeros((m, n))
        for s in live:
            runs[s].begin_cycle(V, r, m)
        stepping = live
        for j in range(m):
            if apply_ma is not None:
                Z[j], w = apply_ma(V[j], stepping)
            else:
                Z[j] = V[j] if apply_m is None else apply_m(V[j], stepping)
                w = apply_a(Z[j], stepping)
            # copy: apply_a may return its argument (e.g. identity operators),
            # and the MGS updates modify each slice in place
            w = np.array(w, dtype=np.float64, copy=True)
            still = []
            for s in stepping:
                run = runs[s]
                h_next, run.breakdown = _arnoldi_column(
                    w[run.sl], V[:, run.sl], run.H, run.cs, run.sn, run.g, j, run.ops,
                )
                if not math.isfinite(h_next):
                    # NaN operator output or overflow in the MGS would poison x
                    # through the rotations: keep the last finite iterate
                    obs.event("resilience.detected", kind="diverged",
                              where="fgmres.hessenberg", iteration=run.iters)
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
        # the in-cycle estimate can be wrong under breakdown with a singular
        # projected system, so convergence is re-validated on the true residual
        r = b - apply_a(x, live)
        for s in live:
            run = runs[s]
            beta_prev = run.beta
            run.beta = run.residual_norm(r)
            run.mon.residuals[-1] = run.beta
            obs.event("krylov.restart", iterations=run.iters, residual=float(run.beta))
            if run.mon.diverged():
                # a non-finite or exploded true residual: the update is
                # untrustworthy, the previous iterate is handed back
                obs.event("resilience.detected", kind="diverged",
                          where="fgmres.restart", iteration=run.iters)
                x[run.sl] = x_prev[s]
                run.finish(x, "diverged")
                continue
            if on_restart is not None:
                on_restart(run.iters, x[run.sl])
            if run.beta <= run.mon.threshold:
                run.finish(x, "converged")
            elif run.breakdown and run.beta >= beta_prev * (1.0 - 1e-12):
                run.finish(x, "stagnated")  # Krylov space exhausted, no progress
            elif run.iters >= maxiter:
                run.finish(x, "maxiter")
        live = [s for s in live if runs[s].result is None]

    return x, [run.result for run in runs]


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
    on_restart: Callable[[int, np.ndarray], None] | None = None,
    apply_ma: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
) -> KrylovResult:
    """Solve ``A x = b`` with restarted flexible GMRES: the cycle on one
    system spanning the whole vector.

    ``apply_m`` is the (possibly iteration-varying) right preconditioner,
    identity when omitted; ``apply_ma`` an optional fused step
    v → (M⁻¹ v, A M⁻¹ v) for the Arnoldi expansion (e.g.
    ``ParallelPreconditioner.apply_matvec``), which must agree with the two
    composed — ``apply_a`` still gives the initial and restart residuals.
    ``restart`` is the cycle length m (paper: 20); convergence is
    ‖r‖ ≤ max(rtol ‖r_0‖, atol) (paper: rtol = 1e-6); ``maxiter < 1`` takes
    no step.  ``on_restart(iterations, x)`` is the checkpoint hook: called
    after the true-residual recompute at the end of each cycle, once the
    iterate is known to be finite, so a later fault can resume from it.
    """
    return _cycle(
        lambda v, live: apply_a(v), b, [0, len(b)],
        None if apply_m is None else lambda v, live: apply_m(v),
        [ops or SerialOps()], restart, rtol, maxiter, x0=x0, atol=atol,
        on_restart=on_restart,
        apply_ma=None if apply_ma is None else lambda v, live: apply_ma(v),
    )[1][0]


def fgmres_lockstep(
    apply_a: Step, b: np.ndarray, bounds: Sequence[int], apply_m: Step,
    ops: Sequence[KernelOps], restart: int, rtol: float, maxiter: int,
) -> tuple[np.ndarray, list[KrylovResult]]:
    """:func:`fgmres` on independent systems at once, one operator call per step.

    ``apply_a(v, live)`` and ``apply_m(v, live)`` act on the whole stacked
    vector; ``live`` lists, ascending, the systems whose own ``fgmres`` would
    have made the call, so the callee charges them and only them.  Result s
    is bitwise ``fgmres(A_s, b_s, M_s, restart=restart, rtol=rtol,
    maxiter=maxiter, ops=ops[s])`` — x, iterations, status, residuals,
    charges and events (interleaved across systems, in order within each).
    A system with no rows is not solved: no call, no charge, no event
    (``converged``, empty history).  Returns the stacked x and the results,
    whose ``x`` are views of it.
    """
    solved = [s for s in range(len(bounds) - 1) if bounds[s + 1] > bounds[s]]

    def named(step: Step) -> Step:
        return lambda v, live: step(v, [solved[i] for i in live])

    x, done = _cycle(
        named(apply_a), b, [bounds[s] for s in solved] + [bounds[-1]],
        named(apply_m), [ops[s] for s in solved], restart, rtol, maxiter,
    )
    results = [KrylovResult(x[lo:lo], 0, "converged", []) for lo in bounds[:-1]]
    for s, res in zip(solved, done):
        results[s] = res
    return x, results
