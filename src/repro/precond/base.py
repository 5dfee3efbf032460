"""Preconditioner interface."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro import obs
from repro.comm.communicator import Communicator
from repro.distributed.matrix import DistributedMatrix
from repro.resilience.errors import NumericalFault


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

    def apply_matvec(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fused ``z = M^{-1} r`` and ``v = A z`` for the inner Krylov step.

        Every Krylov iteration applies the preconditioner and immediately
        multiplies the result by the operator; routing both through one
        entry point gives subclasses a hook to overlap or fuse the two.
        The base implementation composes them — emitting exactly the spans
        and ledger charges of the unfused path, so traces and cost models
        are unchanged — and returns ``(z, v)``.
        """
        z = self(r)
        return z, self.dmat.matvec(self.comm, z)

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

    def _guarded_apply(self, r: np.ndarray) -> np.ndarray:
        z = self.apply(r)
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
