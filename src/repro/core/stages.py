"""The staged solve (paper Sec. 4): distribute → set up → Krylov.

``solve_case``, :class:`~repro.core.transient.TransientHeatSolver` and
``check-determinism`` run the paper's measurement procedure through these
calls, one per stage, each opening its stage's spans (``partition`` +
``distribute``, ``precond.setup``, ``krylov.solve``).  Nothing else under
``src/repro`` builds a ``PartitionMap``, distributes a matrix or constructs
a preconditioner.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from repro import faults, obs
from repro.cases.base import TestCase
from repro.comm.communicator import Communicator
from repro.distributed.matrix import DistributedMatrix, distribute_matrix
from repro.distributed.ops import DistributedOps
from repro.distributed.partition_map import PartitionMap, absorb_rank
from repro.graph.adjacency import Graph
from repro.krylov.bicgstab import bicgstab
from repro.krylov.cg import cg
from repro.krylov.fgmres import fgmres
from repro.krylov.monitors import KrylovResult
from repro.perfmodel.costs import CostLedger
from repro.precond.base import ParallelPreconditioner
from repro.precond.block_jacobi import block1, block2, block_krylov
from repro.precond.identity import IdentityPreconditioner
from repro.precond.jacobi import jacobi
from repro.precond.overlapping_block import OverlappingBlockPreconditioner
from repro.precond.polynomial import ChebyshevPreconditioner
from repro.precond.schur1 import Schur1Preconditioner
from repro.precond.schur2 import Schur2Preconditioner
from repro.precond.schwarz import AdditiveSchwarzPreconditioner

PRECONDITIONER_NAMES = (
    "block1",
    "block2",
    "blockk",
    "blocko",
    "schur1",
    "schur2",
    "as",
    "ras",
    "as+cgc",
    "ras+cgc",
    "cheb",
    "jacobi",
    "none",
)

SOLVERS: dict[str, Callable[..., KrylovResult]] = {
    "fgmres": fgmres, "cg": cg, "bicgstab": bicgstab,
}
SOLVER_NAMES = tuple(SOLVERS)


def distribute(
    case: TestCase, nparts: int, *, seed: int = 0, scheme: str = "general",
    membership: np.ndarray | None = None,
) -> DistributedMatrix:
    """Partition ``case`` over ``nparts`` ranks (unless ``membership`` is
    given) and distribute its matrix; the layout is the result's ``pm``."""
    with obs.span("partition", scheme=scheme):
        if membership is None:
            membership = case.membership(nparts, seed=seed, scheme=scheme)
        pm = PartitionMap(case.coupling_graph, membership, num_ranks=nparts)
    with obs.span("distribute"):
        return distribute_matrix(case.matrix, pm)


def make_preconditioner(
    name: str,
    dmat: DistributedMatrix,
    comm: Communicator,
    case: TestCase,
    params: dict | None = None,
) -> ParallelPreconditioner:
    """Instantiate one of the paper's preconditioners by short name.

    Every set-up — ``solve_case``, the resilience retry/fallback chain and
    the service through it, ``TransientHeatSolver`` — passes here, so this
    is where its one ``precond.setup`` span opens; ``where`` says whether
    the factorizations ran on the driver or in the rank processes.
    """
    with obs.span("precond.setup", precond=name) as span:
        preconditioner = _construct(name, dmat, comm, case, dict(params or {}))
        span.set(where=preconditioner.where)
    return preconditioner


def _construct(
    name: str, dmat: DistributedMatrix, comm: Communicator, case: TestCase,
    params: dict,
) -> ParallelPreconditioner:
    if name == "block1":
        return block1(dmat, comm, **params)
    if name == "block2":
        return block2(dmat, comm, **params)
    if name == "blockk":
        return block_krylov(dmat, comm, **params)
    if name == "blocko":
        params.setdefault("overlap", 1)
        return OverlappingBlockPreconditioner(dmat, comm, case.matrix, **params)
    if name == "schur1":
        return Schur1Preconditioner(dmat, comm, **params)
    if name == "schur2":
        return Schur2Preconditioner(dmat, comm, **params)
    if name == "as":
        return AdditiveSchwarzPreconditioner(
            dmat, comm, case.mesh, case.matrix, coarse_shape=None, **params
        )
    if name == "ras":
        params.setdefault("restricted", True)
        return AdditiveSchwarzPreconditioner(
            dmat, comm, case.mesh, case.matrix, coarse_shape=None, **params
        )
    if name == "as+cgc":
        params.setdefault("coarse_shape", (9, 9))
        return AdditiveSchwarzPreconditioner(
            dmat, comm, case.mesh, case.matrix, **params
        )
    if name == "ras+cgc":
        params.setdefault("coarse_shape", (9, 9))
        params.setdefault("restricted", True)
        return AdditiveSchwarzPreconditioner(
            dmat, comm, case.mesh, case.matrix, **params
        )
    if name == "cheb":
        return ChebyshevPreconditioner(dmat, comm, **params)
    if name == "jacobi":
        return jacobi(dmat, comm)
    if name == "none":
        return IdentityPreconditioner(dmat, comm)
    raise ValueError(f"unknown preconditioner {name!r}; pick from {PRECONDITIONER_NAMES}")


def set_up(
    precond: str, dmat: DistributedMatrix, comm: Communicator, case: TestCase,
    params: dict | None = None,
) -> tuple[ParallelPreconditioner, CostLedger]:
    """Set up ``precond`` under its fault scope; return it and the set-up
    ledger, leaving ``comm.ledger`` empty for the solve.

    Both ledgers carry the per-rank resident working set (local matrix + a
    factor of about its size + six vectors) for the cache-aware machine
    models (Sec. 4.3).
    """
    working_set = np.asarray([
        2 * 16.0 * dmat.local[r].nnz + 8.0 * 6 * sd.n_owned
        for r, sd in enumerate(dmat.pm.subdomains)
    ])
    with faults.scope(precond):
        preconditioner = make_preconditioner(precond, dmat, comm, case, params)
    setup_ledger = comm.reset_ledger()
    setup_ledger.working_set_bytes = working_set
    comm.ledger.working_set_bytes = working_set
    return preconditioner, setup_ledger


def krylov(
    solver: str, precond: str, preconditioner: ParallelPreconditioner,
    b: np.ndarray, x0: np.ndarray, *, rtol: float, maxiter: int,
    restart: int = 20, atol: float = 0.0,
    on_restart: Callable[[int, np.ndarray], None] | None = None,
) -> KrylovResult:
    """Run ``solver`` under the fault scope ``precond`` on the system
    ``preconditioner`` was set up for (``b``, ``x0`` distributed).

    Only FGMRES takes ``restart`` and ``on_restart``; CG takes no fused
    apply-then-matvec step.
    """
    dmat, comm = preconditioner.dmat, preconditioner.comm
    extras: dict[str, Any] = {}
    if solver == "fgmres":
        extras.update(restart=restart, on_restart=on_restart)
    if solver != "cg":
        extras["apply_ma"] = preconditioner.apply_matvec
    with obs.span("krylov.solve", solver=f"{solver}({restart})", rtol=rtol), \
            faults.scope(precond):
        return SOLVERS[solver](
            lambda v: dmat.matvec(comm, v), b, apply_m=preconditioner, x0=x0,
            rtol=rtol, atol=atol, maxiter=maxiter,
            ops=DistributedOps(comm, dmat.pm.layout), **extras,
        )


@contextmanager
def absorb(
    graph: Graph, membership: np.ndarray, dead: int, nparts: int
) -> Iterator[np.ndarray]:
    """The rank-absorb step of every recovery: inside one
    ``resilience.comm.recover`` span, give the dead rank's subdomain to its
    neighbours (:func:`absorb_rank`), tell the fault plan, and let the
    caller rebuild on the yielded survivor membership."""
    with obs.span("resilience.comm.recover", rank=dead, survivors=nparts - 1):
        survivors = absorb_rank(graph, membership, dead)
        plan = faults.active()
        if plan is not None:
            plan.mark_recovered(dead)
        yield survivors
