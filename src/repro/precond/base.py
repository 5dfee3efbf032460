"""Preconditioner interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.comm.communicator import Communicator
from repro.distributed.matrix import DistributedMatrix
from repro.krylov.fgmres import Step, _cycle, fgmres_lockstep
from repro.krylov.monitors import KrylovResult
from repro.krylov.ops import CountingOps, KernelOps
from repro.resilience.errors import InnerSolveDivergence, NumericalFault


class ParallelPreconditioner(ABC):
    """A parallel algebraic preconditioner bound to one distributed operator.

    ``apply`` maps a distributed residual to a distributed correction,
    charging its full parallel cost (per-rank flops, neighbor messages,
    allreduces of any inner iterations) to the communicator's ledger.
    Construction charges the setup phase (factorizations).
    """

    #: short identifier used in result tables ("Block 1", "Schur 2", ...)
    name: str = "preconditioner"
    #: where set-up ran: "driver", or "worker" when a
    #: :class:`~repro.precond.local.LocalSolver` factored in the rank processes
    where: str = "driver"

    def __init__(self, dmat: DistributedMatrix, comm: Communicator) -> None:
        if comm.size != dmat.pm.num_ranks:
            raise ValueError("communicator size does not match the partition")
        self.dmat = dmat
        self.comm = comm
        self.pm = dmat.pm

    @abstractmethod
    def apply(self, r: np.ndarray) -> np.ndarray:
        """Return z ≈ M^{-1} r (distributed ordering)."""

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """``apply`` wrapped in a ``precond.apply`` span and a NaN/Inf guard.

        Callers that want per-application tracing and the guards (the driver
        does) pass the preconditioner object itself as ``apply_m``; calling
        ``.apply`` directly skips both but is otherwise identical.
        """
        r = self._check_input(r)
        if obs.enabled():
            with obs.span("precond.apply", precond=self.name):
                return self._guarded_apply(r)
        return self._guarded_apply(r)

    def _check_input(self, r: np.ndarray) -> np.ndarray:
        """The single shape/dtype guard for all preconditioner applications.

        Subclasses must not re-validate: every ``apply`` sees a 1-D float64
        vector of the distributed layout's length (non-float64 input is
        coerced here once, so classes that allocate with ``empty_like`` or
        return ``r.copy()`` inherit a consistent dtype).
        """
        r = np.asarray(r)
        if r.ndim != 1 or r.shape[0] != self.pm.layout.total:
            raise ValueError(
                f"{self.name}: expected a residual of shape "
                f"({self.pm.layout.total},), got {r.shape}"
            )
        if r.dtype != np.float64:
            r = r.astype(np.float64)
        return r

    def fused_step(self) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None:
        """``v -> (self(v), dmat.matvec(comm, self(v)))`` in one worker round,
        which :func:`repro.core.stages.krylov` passes as ``fgmres(apply_ma=)``;
        None where the apply does not run in the rank processes."""
        return None

    def _guarded_apply(self, r: np.ndarray) -> np.ndarray:
        return self._check_output(self.apply(r))

    def _check_output(self, z: np.ndarray) -> np.ndarray:
        # same two-stage NaN/Inf guard as the distributed matvec: cheap sum
        # test, exact check only before raising
        if not np.isfinite(z.sum()) and not np.all(np.isfinite(z)):
            obs.event(
                "resilience.detected", kind="nonfinite", where="precond.apply",
                precond=self.name,
            )
            raise NumericalFault(
                f"{self.name} preconditioner produced non-finite values",
                where="precond.apply",
                precond=self.name,
                bad=int(np.count_nonzero(~np.isfinite(z))),
                n=int(z.size),
            )
        return z

    # -- shared helpers ------------------------------------------------------

    def _charge_setup(self, flops_per_rank: np.ndarray) -> None:
        """Charge a setup (factorization) phase."""
        self.comm.ledger.add_phase(flops_per_rank)


def charged(
    op: Callable[[np.ndarray], np.ndarray], flops: Sequence[float],
    counters: Sequence[CountingOps],
) -> Step:
    """``op`` as an :func:`inner_solve` step that first charges every live
    system's counter its ``flops``, in ascending order."""

    def step(v: np.ndarray, live: list[int]) -> np.ndarray:
        for s in live:
            counters[s].add(flops[s])
        return op(v)

    return step


def inner_solve(
    apply_a: Step, b: np.ndarray, bounds: Sequence[int], apply_m: Step,
    ops: Sequence[KernelOps], k: int, message: str, where: str,
) -> np.ndarray:
    """The paper's "a few GMRES iterations" (Algorithm 2.1's inner levels,
    Block K's subdomain solves): FGMRES, restart = maxiter = ``k``, to a
    1e-12 relative residual, on the systems ``bounds`` cuts ``b`` into, each
    with its ``ops``.  The steps act on the whole stacked vector; returns
    the stacked solution.

    Several systems run in lockstep (:func:`~repro.krylov.fgmres_lockstep`),
    which skips an empty block; one system spanning the vector runs
    ``fgmres``'s own cycle, which still calls its operator when it has no
    rows.  A diverged system raises :class:`InnerSolveDivergence`
    (``message``, ``where``) for the lowest one, naming its ``rank`` when
    there are several, before the caller charges anything.
    """
    solve: Callable[..., tuple[np.ndarray, list[KrylovResult]]] = (
        _cycle if len(bounds) == 2 else fgmres_lockstep
    )
    x, results = solve(apply_a, b, bounds, apply_m, ops, restart=k, rtol=1e-12, maxiter=k)
    for s, res in enumerate(results):
        if res.status == "diverged":
            rank = {"rank": s} if len(results) > 1 else {}
            raise InnerSolveDivergence(
                message, **rank, where=where, residual=float(res.final_residual),
            )
    return x
