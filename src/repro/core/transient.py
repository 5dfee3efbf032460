"""Transient (multi-step) parallel solves.

The paper's Test Case 4 runs a single implicit Euler step; production heat
simulations run many.  :class:`TransientHeatSolver` (used by
``examples/heat_simulation.py``) runs the distribute and set-up stages of
:mod:`repro.core.stages` once, then one Krylov stage per step, reusing the
distributed operator and the parallel preconditioner.  Set-up cost goes to
``setup_ledger`` and every step's cost to one ledger (``comm.ledger``), so
the amortized parallel cost is measurable.

Long marches are fault-tolerant (docs/robustness.md):

* every completed step is classified (:attr:`StepRecord.status`), and a
  step that ends anything but ``converged`` raises a typed
  :class:`~repro.resilience.errors.TransientStepFailure` instead of
  silently marching on;
* with ``checkpoint_dir`` set, time-step state is snapshotted every
  ``checkpoint_every`` steps (``repro.ckpt.v1``, prefix ``transient``) and
  :meth:`restore` resumes a fresh process from the newest intact snapshot;
* a confirmed :class:`~repro.resilience.errors.RankDeadError` mid-march
  triggers in-place recovery: survivors absorb the dead subdomain
  (:func:`~repro.distributed.partition_map.absorb_rank`), the operator and
  preconditioner are rebuilt on the shrunk layout, and the march rewinds to
  the last checkpoint (or retries the current step when not checkpointed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cases.base import TestCase
from repro.comm.communicator import Communicator
from repro.core import stages
from repro.fem.boundary import apply_dirichlet
from repro.fem.timestepping import ImplicitEulerOperator
from repro.mesh.mesh import Mesh
from repro.perfmodel.costs import CostLedger
from repro.resilience.errors import RankDeadError, TransientStepFailure


@dataclass
class StepRecord:
    """Per-step measurements."""

    step: int
    iterations: int
    converged: bool
    max_abs: float
    status: str = "converged"


class TransientHeatSolver:
    """Implicit-Euler heat marching with a reused parallel preconditioner.

    Parameters
    ----------
    mesh:
        Spatial mesh (any dimension supported by the FE kernels).
    dt, conductivity:
        Time step and conductivity k of u_t = k∇²u.
    dirichlet_nodes:
        Nodes held at zero (TC4 uses the x=1 face; homogeneous Neumann is
        natural elsewhere).
    precond, nparts, seed, scheme:
        Parallel setup, as in :func:`repro.core.solve_case`.
    checkpoint_dir, checkpoint_every:
        When ``checkpoint_dir`` is set, snapshot ``(u, membership)`` every
        ``checkpoint_every`` completed steps; :meth:`restore` and the
        rank-failure recovery path resume from the newest intact snapshot.
    """

    def __init__(
        self,
        mesh: Mesh,
        dt: float,
        dirichlet_nodes: np.ndarray,
        conductivity: float = 1.0,
        precond: str = "schur1",
        nparts: int = 4,
        seed: int = 0,
        scheme: str = "general",
        rtol: float = 1e-8,
        maxiter: int = 300,
        precond_params: dict | None = None,
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 1,
        backend: str | None = None,
    ) -> None:
        self.op = ImplicitEulerOperator(mesh, dt=dt, conductivity=conductivity)
        self.dirichlet = np.asarray(dirichlet_nodes, dtype=np.int64)
        self.matrix, rhs = apply_dirichlet(
            self.op.matrix, np.zeros(mesh.num_points), self.dirichlet, 0.0
        )
        # the system every step solves; only its right-hand side and initial
        # guess change from step to step
        self.case = TestCase(
            key="transient", title="Implicit Euler heat step", mesh=mesh,
            matrix=self.matrix, rhs=rhs, raw_matrix=self.op.matrix,
            x0=np.zeros(mesh.num_points),
        )
        self.rtol = rtol
        self.maxiter = maxiter
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.checkpoint_every = checkpoint_every
        self.checkpoints = None
        if checkpoint_dir is not None:
            from repro.checkpoint import CheckpointManager

            self.checkpoints = CheckpointManager(checkpoint_dir, prefix="transient")

        self.precond_name = precond
        self.precond_params = precond_params
        self.nparts = nparts
        self.seed, self.scheme = seed, scheme
        self.backend_name = backend
        self.comm: Communicator | None = None
        self.setup_ledger: CostLedger | None = None
        self._build()
        self.history: list[StepRecord] = []
        self.step = 0

    # -- layout (re)construction -------------------------------------------

    def _build(self, membership: np.ndarray | None = None) -> None:
        """(Re)build the operator stack on ``membership`` (default: partition).

        Set-up cost always lands on ``setup_ledger``: merged into it on the
        same number of ranks, replacing it on a shrunk world (whose old
        per-rank vectors describe nothing that exists).  The old
        communicator is closed, so a world with a dead rank is shut down
        rather than outliving the layout it served.
        """
        prev = self.comm
        if membership is not None:
            self.nparts = int(membership.max()) + 1
        self.dmat = stages.distribute(
            self.case, self.nparts, seed=self.seed, scheme=self.scheme,
            membership=membership,
        )
        self.membership = self.dmat.pm.membership
        self.comm = Communicator(self.nparts, backend=self.backend_name)
        if prev is not None:
            prev.close()
        self.precond, rebuild = stages.set_up(
            self.precond_name, self.dmat, self.comm, self.case, self.precond_params
        )
        old = self.setup_ledger
        if old is not None and old.num_ranks == rebuild.num_ranks:
            old.merge(rebuild)
        else:
            self.setup_ledger = rebuild

    def close(self) -> None:
        """Release the communicator's execution backend (idempotent)."""
        if self.comm is not None:
            self.comm.close()

    def _recover(self, exc: RankDeadError, u: np.ndarray) -> np.ndarray:
        """Absorb a confirmed-dead rank, rewind to the last checkpoint.

        Returns the state to resume from: the newest intact checkpointed
        ``u`` (with ``self.step`` and the history rewound to match) when
        checkpointing is on, else the in-memory start-of-step state.
        """
        if self.nparts < 2:
            raise exc
        dead = exc.rank
        obs.event("resilience.comm.rank_dead", rank=dead, step=self.step + 1)
        graph = self.case.coupling_graph
        with stages.absorb(graph, self.membership, dead, self.nparts) as survivors:
            self._build(survivors)
            if self.checkpoints is not None:
                ckpt = self.checkpoints.load_latest()
                if ckpt is not None and int(ckpt.meta.get("step", 0)) <= self.step:
                    self.step = int(ckpt.meta.get("step", 0))
                    del self.history[self.step :]
                    return np.asarray(ckpt["u"], dtype=np.float64)
        return u

    def restore(self) -> tuple[np.ndarray, int] | None:
        """Resume a fresh process from the newest intact checkpoint.

        Returns ``(u, step)`` — the state to pass to :meth:`advance` and the
        number of steps already completed — or ``None`` when no intact
        checkpoint exists.  If the snapshot was taken after a rank-failure
        recovery, its (shrunk) partition layout is re-adopted, so survivors
        keep marching as survivors.
        """
        if self.checkpoints is None:
            raise ValueError("restore() requires checkpoint_dir")
        ckpt = self.checkpoints.load_latest()
        if ckpt is None:
            return None
        membership = ckpt.arrays.get("membership")
        if membership is not None:
            membership = np.asarray(membership, dtype=np.int64)
            if not np.array_equal(membership, self.membership):
                self._build(membership)
        self.step = int(ckpt.meta.get("step", 0))
        del self.history[self.step :]
        return np.asarray(ckpt["u"], dtype=np.float64), self.step

    # -- marching -----------------------------------------------------------

    def advance(self, u: np.ndarray, steps: int = 1) -> np.ndarray:
        """March ``steps`` implicit Euler steps from state ``u``.

        A step that ends anything but ``converged`` is recorded in
        ``history`` with its classification and raised as
        :class:`TransientStepFailure`.  A confirmed rank failure triggers
        in-place recovery (see :meth:`_recover`) and the march continues —
        possibly rewound to an earlier checkpointed step — until the
        original target step is reached.
        """
        u = np.asarray(u, dtype=np.float64).copy()
        target = self.step + steps
        while self.step < target:
            rhs = self.op.rhs(u)
            rhs[self.dirichlet] = 0.0
            # symmetric elimination: subtract prescribed couplings (all zero
            # values here, so only the row replacement matters)
            pm = self.dmat.pm
            try:
                res = stages.krylov(
                    self.precond_name, self.precond,
                    pm.to_distributed(rhs), pm.to_distributed(u),
                    rtol=self.rtol, maxiter=self.maxiter,
                )
            except RankDeadError as exc:
                u = self._recover(exc, u)
                continue
            step = self.step + 1
            u_next = pm.to_global(res.x)
            self.history.append(
                StepRecord(
                    step=step,
                    iterations=res.iterations,
                    converged=res.converged,
                    max_abs=float(np.abs(u_next).max()),
                    status=res.status,
                )
            )
            if not res.converged:
                raise TransientStepFailure(
                    f"step {step} ended {res.status!r} after "
                    f"{res.iterations} iterations",
                    step=step, step_status=res.status,
                    iterations=res.iterations,
                )
            u = u_next
            self.step = step
            if self.checkpoints is not None and step % self.checkpoint_every == 0:
                self.checkpoints.save(
                    step,
                    {"u": u, "membership": self.membership},
                    meta={
                        "kind": "transient",
                        "nparts": self.nparts,
                        "precond": self.precond_name,
                    },
                )
        return u

    @property
    def total_iterations(self) -> int:
        return sum(rec.iterations for rec in self.history)
