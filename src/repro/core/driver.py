"""The end-to-end parallel solve pipeline (paper Sec. 4).

``solve_case`` reproduces the paper's measurement procedure: partition the
grid, set up the distributed system and the chosen parallel algebraic
preconditioner, run FGMRES(20) to a 10⁻⁶ relative residual reduction, and
report iteration count plus (simulated) wall-clock time, with setup and solve
phases ledgered separately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import faults, obs
from repro.cases.base import TestCase
from repro.comm.communicator import Communicator
from repro.distributed.matrix import DistributedMatrix, distribute_matrix
from repro.distributed.ops import DistributedOps
from repro.distributed.partition_map import PartitionMap
from repro.krylov.bicgstab import bicgstab
from repro.krylov.cg import cg
from repro.krylov.fgmres import fgmres
from repro.krylov.monitors import STATUSES
from repro.perfmodel.costs import CostLedger
from repro.perfmodel.machine import Machine
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


SOLVER_NAMES = ("fgmres", "cg", "bicgstab")


@dataclass
class SolveOutcome:
    """Everything the paper's tables report, plus diagnostics.

    ``status`` carries the classified solver termination (one of
    :data:`repro.krylov.STATUSES`); ``converged`` stays available as a
    derived property so table-building code keeps reading naturally.
    """

    case_key: str
    precond: str
    nparts: int
    scheme: str
    seed: int
    iterations: int
    status: str
    setup_ledger: CostLedger
    solve_ledger: CostLedger
    wall_seconds: float
    residuals: list[float] = field(repr=False)
    x_global: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    error: float | None = None
    backend: str = "inprocess"
    comm_stats: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}; pick from {STATUSES}")

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def sim_time(self, machine: Machine, include_setup: bool = True) -> float:
        """Simulated parallel wall-clock seconds on ``machine``."""
        t = machine.time(self.solve_ledger)
        if include_setup:
            t += machine.time(self.setup_ledger)
        return t

    def time_per_iteration(self, machine: Machine) -> float:
        return machine.time(self.solve_ledger) / max(self.iterations, 1)


def solve_case(
    case: TestCase,
    precond: str = "schur1",
    nparts: int = 4,
    seed: int = 0,
    scheme: str = "general",
    rtol: float = 1e-6,
    restart: int = 20,
    maxiter: int = 500,
    precond_params: dict | None = None,
    keep_solution: bool = True,
    solver: str = "fgmres",
    x0: np.ndarray | None = None,
    membership: np.ndarray | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 1,
    restore: bool = False,
    backend: str | None = None,
    retry_policy=None,
) -> SolveOutcome:
    """Run the full pipeline on ``case`` and return the measurements.

    Parameters beyond the paper's measurement procedure:

    solver:
        Outer Krylov method — ``"fgmres"`` (paper default), ``"cg"`` or
        ``"bicgstab"``.
    x0 / membership:
        Global-numbering initial guess and explicit partition override.
        The recovery paths use these to resume a solve on a *remapped*
        layout after a rank failure (see ``repro.resilience``).
    checkpoint_dir / checkpoint_every / restore:
        FGMRES-only checkpoint/restart: snapshot the global-numbered
        iterate every ``checkpoint_every`` restart cycles into
        ``checkpoint_dir`` (``repro.ckpt.v1`` files, prefix ``solve``);
        with ``restore=True`` the newest intact snapshot seeds ``x0``.
        Checkpoints store global numbering, so a restore survives a
        partition remap.
    backend:
        Execution backend for the communicator — ``"inprocess"`` (default:
        simulated ranks) or ``"multiprocess"`` (ranks as supervised OS
        processes; ghost exchanges travel over real pipes, and the
        per-rank hot path — matvecs, ILU sweeps — executes inside the
        rank processes; see ``docs/algorithms.md`` §8).  ``None`` consults the
        ``REPRO_COMM_BACKEND`` environment variable.  The numerical
        results are bitwise identical across backends
        (``docs/robustness.md``).
    retry_policy:
        Override of the communicator's transfer
        :class:`~repro.comm.communicator.RetryPolicy`.  The serving layer
        passes a deadline-scaled policy here so a job's end-to-end budget
        bounds the comm retry waits too (``docs/service.md``); ``None``
        keeps the backend's default.
    """
    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {solver!r}; pick from {SOLVER_NAMES}")
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    manager = None
    if checkpoint_dir is not None:
        from repro.checkpoint import CheckpointManager

        manager = CheckpointManager(checkpoint_dir, prefix="solve")
    comm = Communicator(nparts, retry_policy=retry_policy, backend=backend)
    tracer = obs.get_tracer()
    tracer.bind(comm)
    obs.event(
        "comm.backend.selected", backend=comm.backend.name, ranks=nparts,
        real=comm.backend.is_real,
    )
    try:
        return _solve_case_with(
            comm, case, precond=precond, nparts=nparts, seed=seed,
            scheme=scheme, rtol=rtol, restart=restart, maxiter=maxiter,
            precond_params=precond_params, keep_solution=keep_solution,
            solver=solver, x0=x0, membership=membership, manager=manager,
            checkpoint_every=checkpoint_every, restore=restore,
        )
    finally:
        comm.close()


def _solve_case_with(
    comm: Communicator,
    case: TestCase,
    *,
    precond: str,
    nparts: int,
    seed: int,
    scheme: str,
    rtol: float,
    restart: int,
    maxiter: int,
    precond_params: dict | None,
    keep_solution: bool,
    solver: str,
    x0: np.ndarray | None,
    membership: np.ndarray | None,
    manager,
    checkpoint_every: int,
    restore: bool,
) -> SolveOutcome:
    """The pipeline body, on an externally owned communicator."""
    with obs.span(
        "solve_case", case=case.key, precond=precond, nparts=nparts,
        scheme=scheme, seed=seed,
    ) as root:
        with obs.span("partition", scheme=scheme):
            if membership is None:
                membership = case.membership(nparts, seed=seed, scheme=scheme)
            pm = PartitionMap(case.coupling_graph, membership, num_ranks=nparts)
        with obs.span("distribute"):
            dmat = distribute_matrix(case.matrix, pm)

        # per-rank resident working set: local matrix + factor (≈ matrix-sized)
        # + a handful of vectors — feeds cache-aware machine models (Sec. 4.3)
        working_set = np.asarray(
            [
                2 * 16.0 * dmat.local[r].nnz + 8.0 * 6 * pm.subdomains[r].n_owned
                for r in range(nparts)
            ]
        )

        # scope the fault plan so targeted factorization faults hit this
        # preconditioner's setup but not a fallback's
        with faults.scope(precond):
            preconditioner = make_preconditioner(
                precond, dmat, comm, case, precond_params
            )
        setup_ledger = comm.reset_ledger()
        setup_ledger.working_set_bytes = working_set
        comm.ledger.working_set_bytes = working_set

        ops = DistributedOps(comm, pm.layout)
        b_dist = pm.to_distributed(case.rhs)
        x0_global = case.x0 if x0 is None else np.asarray(x0, dtype=np.float64)
        atol = 0.0
        target = 0.0
        if manager is not None:
            # the target the run is aiming for, anchored to the *original*
            # start: a restored solve must finish the old job, not chase a
            # fresh rtol reduction relative to its (already nearly
            # converged) restart point
            r0 = b_dist - dmat.matvec(comm, pm.to_distributed(x0_global))
            target = rtol * float(np.linalg.norm(r0))
            if restore:
                ckpt = manager.load_latest()
                if ckpt is not None:
                    x0_global = ckpt["x"]
                    atol = float(ckpt.meta.get("target", 0.0))
        x0_dist = pm.to_distributed(x0_global)

        on_restart = None
        if manager is not None and solver == "fgmres":
            cycle = 0

            def on_restart(iters: int, x_dist: np.ndarray) -> None:
                nonlocal cycle
                cycle += 1
                if cycle % checkpoint_every == 0:
                    manager.save(
                        iters,
                        {"x": pm.to_global(x_dist), "b": np.asarray(case.rhs)},
                        meta={
                            "kind": "solve",
                            "case": case.key,
                            "precond": precond,
                            "nparts": nparts,
                            "iterations": int(iters),
                            "target": target,
                        },
                    )

        t0 = time.perf_counter()
        with obs.span("krylov.solve", solver=f"{solver}({restart})", rtol=rtol), \
                faults.scope(precond):
            if solver == "fgmres":
                result = fgmres(
                    lambda v: dmat.matvec(comm, v),
                    b_dist,
                    apply_m=preconditioner,
                    x0=x0_dist,
                    restart=restart,
                    rtol=rtol,
                    atol=atol,
                    maxiter=maxiter,
                    ops=ops,
                    on_restart=on_restart,
                    apply_ma=preconditioner.apply_matvec,
                )
            elif solver == "cg":
                result = cg(
                    lambda v: dmat.matvec(comm, v),
                    b_dist,
                    apply_m=preconditioner,
                    x0=x0_dist,
                    rtol=rtol,
                    atol=atol,
                    maxiter=maxiter,
                    ops=ops,
                )
            else:
                result = bicgstab(
                    lambda v: dmat.matvec(comm, v),
                    b_dist,
                    apply_m=preconditioner,
                    x0=x0_dist,
                    rtol=rtol,
                    atol=atol,
                    maxiter=maxiter,
                    ops=ops,
                    apply_ma=preconditioner.apply_matvec,
                )
        wall = time.perf_counter() - t0

        x_global = pm.to_global(result.x)
        root.set(
            iterations=result.iterations,
            converged=result.converged,
            status=result.status,
        )
    return SolveOutcome(
        case_key=case.key,
        precond=preconditioner.name,
        nparts=nparts,
        scheme=scheme,
        seed=seed,
        iterations=result.iterations,
        status=result.status,
        setup_ledger=setup_ledger,
        solve_ledger=comm.ledger,
        wall_seconds=wall,
        residuals=result.residuals,
        x_global=x_global if keep_solution else None,
        error=case.solution_error(x_global),
        backend=comm.backend.name,
        comm_stats=comm.comm_stats.as_dict(),
    )
