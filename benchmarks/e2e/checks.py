"""Correctness checks: every op the benchmark times is also verified.

A miss counts the op as failed and fails the command.  The checks use only
the global CSR system the case was built with, never the solver's own
residual estimate (service jobs excepted: the service hands back a relative
residual, not the solution vector).
"""

from __future__ import annotations

import numpy as np

RESIDUAL_SLACK = 10.0  # accepted: recomputed relative residual <= 10 * rtol


def relative_residual(matrix, rhs, x0, x) -> float:
    """‖b − A x‖ / ‖b − A x₀‖ from the global system."""
    r0 = float(np.linalg.norm(rhs - matrix @ x0))
    r = float(np.linalg.norm(rhs - matrix @ x))
    return r / r0 if r0 > 0.0 else r


def check_solution(
    solved, *, matrix, rhs, x0, rtol: float,
    exact: np.ndarray | None = None, err_bound: float | None = None,
    twin: np.ndarray | None = None,
) -> list[str]:
    """Failures of one solve op (empty list = passed).

    ``twin`` is the same solve on the in-process backend; a real-process
    backend must reproduce it bit for bit.
    """
    if solved.error is not None:
        return [f"raised {solved.error}"]
    fails = []
    if solved.status != "converged":
        fails.append(f"status {solved.status!r}")
    if solved.x is None or not np.all(np.isfinite(solved.x)):
        return fails + ["solution missing or non-finite"]
    relres = relative_residual(matrix, rhs, x0, solved.x)
    if not relres <= RESIDUAL_SLACK * rtol:
        fails.append(f"relative residual {relres:.3e} > {RESIDUAL_SLACK * rtol:.1e}")
    if exact is not None:
        err = float(np.abs(solved.x - exact).max())
        if not err <= err_bound:
            fails.append(f"max error {err:.3e} > bound {err_bound:.3e}")
    if twin is not None and not np.array_equal(solved.x, twin):
        fails.append("differs bitwise from the in-process twin")
    return fails


def check_job(solved, *, rtol: float) -> list[str]:
    """Failures of one service job, from what the service reports."""
    if solved.error is not None:
        return [f"raised {solved.error}"]
    fails = []
    if solved.status != "converged":
        fails.append(f"status {solved.status!r}")
    if solved.relres is None or not solved.relres <= RESIDUAL_SLACK * rtol:
        fails.append(f"final_relres {solved.relres} > {RESIDUAL_SLACK * rtol:.1e}")
    return fails


class RepeatCheck:
    """Equal (config, seed) must give equal iteration counts across passes."""

    def __init__(self) -> None:
        self._seen: dict[tuple, int] = {}

    def check(self, key: tuple, iterations: int) -> list[str]:
        first = self._seen.setdefault(key, iterations)
        if first != iterations:
            return [f"{key}: {iterations} iterations, {first} on an earlier pass"]
        return []


def check_equivalent(entry, explicit, *, bitwise: bool = True) -> list[str]:
    """The explicit pipeline must reproduce the entry point's op.

    ``bitwise=False`` is for service jobs, whose solution never leaves the
    service: there only status and iteration count are comparable.
    """
    if entry.error is not None or explicit.error is not None:
        return [f"raised (entry {entry.error}, explicit {explicit.error})"]
    fails = []
    if entry.status != explicit.status:
        fails.append(f"status {entry.status!r} vs explicit {explicit.status!r}")
    if entry.iterations != explicit.iterations:
        fails.append(
            f"{entry.iterations} iterations vs explicit {explicit.iterations}"
        )
    if bitwise and not np.array_equal(entry.x, explicit.x):
        fails.append("explicit-pipeline solution differs bitwise")
    if entry.sim_s is not None and explicit.sim_s is not None \
            and entry.sim_s != explicit.sim_s:
        fails.append(f"modelled time {entry.sim_s!r} vs explicit {explicit.sim_s!r}")
    return fails
