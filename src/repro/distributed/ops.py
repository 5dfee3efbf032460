"""Distributed kernel operations bundled for the Krylov solvers.

A Krylov method needs exactly three distributed kernels (paper Sec. 1):
vector updates (local), inner products (allreduce), and the matvec
(ghost exchange + local product).  :class:`DistributedOps` packages the
first two over a :class:`~repro.distributed.layout.Layout` so solvers are
written once and run on any distributed layout (full system or the interface
Schur system).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.comm.communicator import Communicator
from repro.distributed.layout import Layout
from repro.krylov.ops import tree_plan
from repro.perfmodel.costs import Charge


class DistributedOps:
    """Communication-charging dot/norm over a rank-blocked layout."""

    def __init__(self, comm: Communicator, layout: Layout) -> None:
        if layout.num_ranks != comm.size:
            raise ValueError("layout and communicator rank counts differ")
        self.comm = comm
        self.layout = layout
        self._slices = layout.slices
        self._plan = tree_plan(layout.num_ranks)
        # one multiply-add per entry: what a dot and an axpy both cost a rank
        self._vector_flops = 2.0 * layout.sizes
        self._dot_charge = Charge(comm.size, self._vector_flops)

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        """Global inner product (charges per-rank flops + one allreduce).

        Evaluated as per-rank partials combined by the fixed-order pairwise
        tree (:func:`~repro.krylov.ops.fixed_tree_sum`, run as its
        :func:`~repro.krylov.ops.tree_plan`) — the reduction order is a
        function of the rank count alone, so the result is bitwise
        identical on any backend.  The partials are computed on the driver,
        one BLAS ``ddot`` per rank slice: a whole-vector product or
        ``np.add.reduceat`` would change bits.  One rank's partial is the
        historical whole-vector product.
        """
        ledger = self.comm.ledger
        ledger.add_charge(self._dot_charge)
        ledger.add_allreduce(nbytes=8)
        if obs.enabled():
            obs.event("comm.allreduce", bytes=8)
        p = [float(x[s].dot(y[s])) for s in self._slices]
        for i, j in self._plan:
            p[i] += p[j]
        return p[0]

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(self.dot(x, x), 0.0)))

    def charge_local_axpy(self, count: int = 1) -> None:
        """Charge ``count`` vector updates (2 flops/entry, no communication)."""
        self.comm.ledger.add_phase(count * self._vector_flops)
