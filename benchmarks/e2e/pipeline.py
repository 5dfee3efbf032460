"""The solve path as explicit public calls, one span around each.

``solve_case`` and ``TransientHeatSolver`` are what a user runs and what the
untraced run times.  The traced run re-executes the same operation through
the public calls those entry points are made of — ``TestCase.membership`` →
``PartitionMap`` → ``distribute_matrix`` → ``make_preconditioner`` →
``fgmres`` — so each layer gets a span without any change under ``src/``.
``checks.check_equivalent`` then requires the two executions to agree bit for
bit, which is what licenses reading the layer shares of one as the layer
shares of the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import LINUX_CLUSTER
from repro.comm.communicator import Communicator
from repro.core import make_preconditioner
from repro.distributed.matrix import distribute_matrix
from repro.distributed.ops import DistributedOps
from repro.distributed.partition_map import PartitionMap
from repro.fem.timestepping import ImplicitEulerOperator
from repro.krylov.fgmres import fgmres

from spans import SpanRecorder


@dataclass
class Solved:
    """What one executed op hands to the checker and the layer sums."""

    x: np.ndarray
    iterations: int
    status: str
    wall: float = 0.0
    sim_s: float | None = None
    counts: dict | None = None       # ledger / comm_stats totals, explicit runs
    relres: float | None = None      # service jobs: as reported by the service
    error: str | None = None         # set when the op raised
    membership: np.ndarray | None = None   # explicit runs: the partition used
    interface_dofs: int = 0                # explicit runs: sum over ranks


def _counts(comm, *ledgers) -> dict:
    """Exact work counters of one op, summed over its retired ledgers."""
    stats = comm.comm_stats
    return {
        "messages": sum(led.total_msgs for led in ledgers),
        "bytes": sum(led.total_bytes for led in ledgers),
        "allreduces": sum(led.allreduces for led in ledgers),
        "retries": stats.retries,
        "timeouts": stats.timeouts,
        "wire_messages": stats.messages,
    }


def _krylov(rec: SpanRecorder, dmat, comm, pm, preconditioner, b, x0, *,
            rtol, maxiter, fused: bool):
    """``fgmres`` exactly as the entry points call it, every callback wrapped."""
    ops = DistributedOps(comm, pm.layout)
    ops.dot = rec.wrap("krylov.dot", ops.dot)
    ops.norm = rec.wrap("krylov.norm", ops.norm)
    matvec = rec.wrap("distributed.matvec", lambda v: dmat.matvec(comm, v))
    apply_m = rec.wrap("precond.apply", preconditioner)

    def apply_ma(v):
        # ParallelPreconditioner.apply_matvec, with its two halves visible
        z = apply_m(v)
        return z, matvec(z)

    with rec.span("krylov.solve"):
        return fgmres(
            matvec, pm.to_distributed(b), apply_m=apply_m,
            x0=pm.to_distributed(x0), restart=20, rtol=rtol, maxiter=maxiter,
            ops=ops, apply_ma=apply_ma if fused else None,
        )


def explicit_solve(
    rec: SpanRecorder, op_id: int, case, precond: str, nparts: int, seed: int,
    membership: np.ndarray | None = None, backend: str | None = None,
    rtol: float = 1e-6, maxiter: int = 500,
) -> Solved:
    """``solve_case(case, precond, nparts, seed, ...)`` call by call."""
    with rec.span("op", op=op_id) as root:
        if membership is None:
            with rec.span("graph.partition"):
                membership = case.membership(nparts, seed=seed)
        with rec.span("distributed.map"):
            pm = PartitionMap(case.coupling_graph, membership, num_ranks=nparts)
        with rec.span("distributed.distribute"):
            dmat = distribute_matrix(case.matrix, pm)
        with rec.span("comm.spawn"):
            comm = Communicator(nparts, backend=backend)
            comm.backend.ensure_started()  # ranks come up lazily otherwise
        try:
            with rec.span("precond.setup"):
                preconditioner = make_preconditioner(precond, dmat, comm, case)
            # the cache-aware machine models read this (solve_case sets it too)
            working_set = np.asarray([
                2 * 16.0 * dmat.local[r].nnz + 8.0 * 6 * pm.subdomains[r].n_owned
                for r in range(nparts)
            ])
            setup_ledger = comm.reset_ledger()
            setup_ledger.working_set_bytes = working_set
            comm.ledger.working_set_bytes = working_set
            result = _krylov(
                rec, dmat, comm, pm, preconditioner, case.rhs, case.x0,
                rtol=rtol, maxiter=maxiter, fused=True,
            )
            with rec.span("distributed.gather"):
                x = pm.to_global(result.x)
            solve_ledger = comm.ledger
        finally:
            with rec.span("comm.close"):
                comm.close()
    return Solved(
        x=x, iterations=result.iterations, status=result.status,
        wall=root.duration,
        sim_s=LINUX_CLUSTER.time(solve_ledger) + LINUX_CLUSTER.time(setup_ledger),
        counts=dict(_counts(comm, setup_ledger, solve_ledger),
                    setup_flops=setup_ledger.total_flops),
        membership=membership,
        interface_dofs=sum(sd.n_interface for sd in pm.subdomains),
    )


class ExplicitMarch:
    """``TransientHeatSolver`` call by call: build once, then step."""

    def __init__(self, rec: SpanRecorder, case, precond: str, nparts: int,
                 seed: int, dt: float, rtol: float, maxiter: int) -> None:
        self.rec, self.case = rec, case
        self.rtol, self.maxiter = rtol, maxiter
        self.op = ImplicitEulerOperator(case.mesh, dt=dt)
        self.dirichlet = case.mesh.boundary_set("right")
        with rec.span("graph.partition"):
            self.membership = case.membership(nparts, seed=seed)
        with rec.span("distributed.map"):
            self.pm = PartitionMap(case.coupling_graph, self.membership, num_ranks=nparts)
        with rec.span("distributed.distribute"):
            self.dmat = distribute_matrix(case.matrix, self.pm)
        with rec.span("comm.spawn"):
            self.comm = Communicator(nparts)
        with rec.span("precond.setup"):
            self.precond = make_preconditioner(precond, self.dmat, self.comm, case)
        self.setup_ledger = self.comm.reset_ledger()

    def step(self, u: np.ndarray, op_id: int) -> Solved:
        """One implicit-Euler step, as ``advance(u, 1)`` performs it."""
        stats_before = _counts(self.comm)
        with self.rec.span("op", op=op_id) as root:
            rhs = self.op.rhs(u)
            rhs[self.dirichlet] = 0.0
            result = _krylov(
                self.rec, self.dmat, self.comm, self.pm, self.precond, rhs, u,
                rtol=self.rtol, maxiter=self.maxiter, fused=False,
            )
            with self.rec.span("distributed.gather"):
                x = self.pm.to_global(result.x)
        ledger = self.comm.reset_ledger()  # one ledger per step
        counts = _counts(self.comm, ledger)
        for key in ("retries", "timeouts", "wire_messages"):
            counts[key] -= stats_before[key]
        return Solved(
            x=x, iterations=result.iterations, status=result.status,
            wall=root.duration, sim_s=LINUX_CLUSTER.time(ledger),
            counts=dict(counts, setup_flops=0.0), membership=self.membership,
            interface_dofs=sum(sd.n_interface for sd in self.pm.subdomains),
        )

    def close(self) -> None:
        self.comm.close()
