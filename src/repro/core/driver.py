"""The end-to-end parallel solve pipeline (paper Sec. 4).

``solve_case`` reproduces the paper's measurement procedure: partition the
grid, set up the distributed system and the chosen parallel algebraic
preconditioner, run FGMRES(20) to a 10⁻⁶ relative residual reduction, and
report iteration count plus (simulated) wall-clock time, with setup and solve
phases ledgered separately.  The stages themselves are
:mod:`repro.core.stages`; this module adds the communicator, the
checkpoints and the report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cases.base import TestCase
from repro.comm.communicator import Communicator
from repro.core import stages
# PRECONDITIONER_NAMES and make_preconditioner stay importable from here
from repro.core.stages import PRECONDITIONER_NAMES, SOLVER_NAMES, make_preconditioner
from repro.krylov.monitors import STATUSES
from repro.perfmodel.costs import CostLedger
from repro.perfmodel.machine import Machine


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
        with obs.span(
            "solve_case", case=case.key, precond=precond, nparts=nparts,
            scheme=scheme, seed=seed,
        ) as root:
            dmat = stages.distribute(
                case, nparts, seed=seed, scheme=scheme, membership=membership
            )
            pm = dmat.pm
            preconditioner, setup_ledger = stages.set_up(
                precond, dmat, comm, case, precond_params
            )

            b_dist = pm.to_distributed(case.rhs)
            x0_global = case.x0 if x0 is None else np.asarray(x0, dtype=np.float64)
            atol = 0.0
            on_restart = None
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

            x0_dist = pm.to_distributed(x0_global)
            t0 = time.perf_counter()
            result = stages.krylov(
                solver, precond, preconditioner, b_dist, x0_dist, rtol=rtol,
                maxiter=maxiter, restart=restart, atol=atol, on_restart=on_restart,
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
    finally:
        comm.close()
