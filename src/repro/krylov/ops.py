"""Kernel-operation providers for the Krylov solvers."""

from __future__ import annotations

import functools
import math
from typing import Protocol

import numpy as np


def fixed_tree_sum(parts) -> float:
    """Fixed-order pairwise tree reduction of per-rank partial sums.

    The deterministic-reduction contract of the distributed inner product
    (docs/algorithms.md, "Fixed-order tree reductions"): partials are
    combined pairwise by ascending rank — ``(p0+p1) + (p2+p3)`` — level by
    level, an odd tail passing through unchanged.  The combination order is
    a pure function of the rank count, never of timing or transport, which
    is what keeps inprocess and multiprocess results bitwise equal whether
    the partials were computed in the driver or shipped back from worker
    processes.  A single partial returns unchanged, so ``p = 1`` reproduces
    the historical whole-vector ``np.dot`` bit for bit.
    """
    vals = [float(v) for v in parts]
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


@functools.cache
def tree_plan(n: int) -> tuple[tuple[int, int], ...]:
    """:func:`fixed_tree_sum`'s pairing of ``n`` partials as in-place adds,
    in order: after ``p[i] += p[j]`` for each ``(i, j)``, ``p[0]`` is the
    tree sum of a list ``p`` of Python floats, bit for bit (each pair's
    left operand holds its subtree's sum; the adds are the same, in the
    same order).  Built once per rank count."""
    steps, heads = [], list(range(n))
    while len(heads) > 1:
        steps += [(heads[i], heads[i + 1]) for i in range(0, len(heads) - 1, 2)]
        heads = heads[::2]
    return tuple(steps)


def vector_norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a real 1-D vector to the bit: numpy's own
    steps for that case without its argument checks, which cost more than
    the arithmetic here (a bare ``np.dot(x, x)`` is another sum on a strided
    view)."""
    v = x.ravel(order="K")
    return math.sqrt(v.dot(v))


class KernelOps(Protocol):
    """The three kernels a Krylov method needs (paper Sec. 1)."""

    def dot(self, x: np.ndarray, y: np.ndarray) -> float: ...

    def norm(self, x: np.ndarray) -> float: ...

    def charge_local_axpy(self, count: int = 1) -> None: ...


class SerialOps:
    """Plain numpy kernels with no cost accounting (serial runs, tests)."""

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.dot(x, y))

    def norm(self, x: np.ndarray) -> float:
        return vector_norm(x)

    def charge_local_axpy(self, count: int = 1) -> None:
        return None


class CountingOps:
    """Numpy kernels that tally their flops.

    Used for the *local* inner solves of the Schur preconditioners: a
    subdomain's inner GMRES involves no communication (its dots are local),
    but its arithmetic must still be charged to that rank.  The accumulated
    count is read off after the solve and fed into the phase ledger.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.flops = 0.0

    def add(self, flops: float) -> None:
        """Charge extra work (operator or preconditioner applications)."""
        self.flops += flops

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        self.flops += 2.0 * len(x)
        return float(np.dot(x, y))

    def norm(self, x: np.ndarray) -> float:
        self.flops += 2.0 * len(x)
        return vector_norm(x)

    def charge_local_axpy(self, count: int = 1) -> None:
        self.flops += 2.0 * count * self.n
