"""Job model: declarative solve specs and their observable lifecycle.

A :class:`JobSpec` is everything a tenant declares about one solve — case,
preconditioner, tolerances, deadline — in plain data, so specs round-trip
through JSON lines (the ``repro serve`` wire format) and drain manifests.

A :class:`JobRecord` is the service's live view of one accepted job: a
small state machine

::

    queued ──▶ running ──▶ converged | failed
       │          │
       │          ├──▶ shed       (drain / deadline — resumable when
       │          │                a checkpoint exists)
       │          └──▶ cancelled
       ├──▶ shed            (load shedding, drain flush)
       └──▶ cancelled

with four terminal statuses (:data:`TERMINAL_STATUSES`).  Every transition
appends a typed :class:`JobUpdate` and wakes waiters, so clients stream
progress (residual history rides on ``progress`` updates) without polling
the solver.  All methods are thread-safe; waits are always bounded
(lint rule RPR009 enforces explicit timeouts in this package).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.cases import resolve_case_key
from repro.cases.base import PARTITION_SCHEMES
from repro.comm.backends.base import BACKEND_NAMES
from repro.service.errors import UnknownJob

#: every status a job can report; the last four are terminal
JOB_STATUSES = ("queued", "running", "converged", "failed", "shed", "cancelled")
TERMINAL_STATUSES = ("converged", "failed", "shed", "cancelled")

#: legal transitions of the lifecycle state machine
_TRANSITIONS = {
    "queued": ("running", "shed", "cancelled"),
    "running": ("converged", "failed", "shed", "cancelled"),
}


@dataclass(frozen=True)
class JobSpec:
    """One tenant's declarative solve request.

    ``deadline_s`` is the end-to-end budget from *submission*: queueing,
    retries, and every solver chunk all spend from it.  ``key`` makes the
    submission idempotent — re-submitting an identical key returns the
    existing record instead of a duplicate job.  ``maxiter`` stays the
    honest iteration budget; the deadline can only shrink it.  Every job
    runs FGMRES(20), so a spec names no outer solver.
    """

    tenant: str = "default"
    case: str = "tc1"
    size: int | None = 17
    precond: str = "schur1"
    nparts: int = 2
    rtol: float = 1e-6
    maxiter: int = 400
    seed: int = 0
    scheme: str = "general"
    backend: str | None = None
    deadline_s: float | None = None
    key: str | None = None

    def __post_init__(self) -> None:
        from repro.core.driver import PRECONDITIONER_NAMES

        resolve_case_key(self.case)
        if self.precond not in PRECONDITIONER_NAMES:
            raise ValueError(
                f"unknown preconditioner {self.precond!r}; "
                f"pick from {PRECONDITIONER_NAMES}"
            )
        if self.scheme not in PARTITION_SCHEMES:
            raise ValueError(
                f"unknown partitioning scheme {self.scheme!r}; "
                f"pick from {PARTITION_SCHEMES}"
            )
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown execution backend {self.backend!r}; "
                f"pick from {BACKEND_NAMES}"
            )
        if self.nparts < 1:
            raise ValueError("nparts must be >= 1")
        if self.maxiter < 1:
            raise ValueError("maxiter must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 when given")
        if not self.tenant:
            raise ValueError("tenant must be a non-empty string")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        data = dict(data)
        # specs written when the outer solver was a field carry "fgmres"
        solver = data.pop("solver", "fgmres")
        if solver != "fgmres":
            raise ValueError(
                f"JobSpec field 'solver' must be 'fgmres', got {solver!r}"
            )
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown JobSpec field(s) {unknown}")
        return cls(**data)


@dataclass(frozen=True)
class JobUpdate:
    """One observable lifecycle event of a job."""

    seq: int
    t: float
    kind: str  # "status" | "progress"
    status: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq, "t": self.t, "kind": self.kind,
            "status": self.status, "detail": self.detail,
        }


class JobRecord:
    """The service-side state of one accepted (or shed) job."""

    def __init__(
        self,
        job_id: str,
        spec: JobSpec,
        clock=time.monotonic,
        checkpoint_dir: str | None = None,
    ) -> None:
        self.job_id = job_id
        self.spec = spec
        self.clock = clock
        self.checkpoint_dir = checkpoint_dir
        self.status = "queued"
        self.created_t = clock()
        self.started_t: float | None = None
        self.finished_t: float | None = None
        self.iterations = 0
        self.residuals: list[float] = []
        self.final_relres: float | None = None
        self.attempts: list[dict] = []
        self.error: str | None = None
        self.shed_reason: str | None = None
        self.resumable = False
        self.resumed = False
        self.worker: str | None = None
        self.updates: list[JobUpdate] = []
        self._cancel = False
        self._cond = threading.Condition()
        self._record("status", "queued")

    # -- state machine -----------------------------------------------------

    def _record(self, kind: str, status: str, **detail) -> None:
        self.updates.append(JobUpdate(
            seq=len(self.updates), t=self.clock(), kind=kind,
            status=status, detail=detail,
        ))

    def transition(self, status: str, **detail) -> None:
        """Move to ``status`` (validated), record the update, wake waiters."""
        if status not in JOB_STATUSES:
            raise ValueError(f"unknown status {status!r}; pick from {JOB_STATUSES}")
        with self._cond:
            allowed = _TRANSITIONS.get(self.status, ())
            if status not in allowed:
                raise ValueError(
                    f"illegal transition {self.status!r} -> {status!r} "
                    f"for {self.job_id}"
                )
            self.status = status
            if status == "running":
                self.started_t = self.clock()
            if status in TERMINAL_STATUSES:
                self.finished_t = self.clock()
            self._record("status", status, **detail)
            self._cond.notify_all()

    def progress(self, **detail) -> None:
        """Record a non-state-changing progress update (residuals etc.)."""
        with self._cond:
            self._record("progress", self.status, **detail)
            self._cond.notify_all()

    def request_cancel(self) -> None:
        with self._cond:
            self._cancel = True
            self._cond.notify_all()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @property
    def latency_s(self) -> float | None:
        if self.finished_t is None:
            return None
        return self.finished_t - self.created_t

    # -- observation -------------------------------------------------------

    def wait(self, timeout: float) -> bool:
        """Block (bounded) until the job is terminal; True when it is."""
        deadline = self.clock() + timeout
        with self._cond:
            while not self.terminal:
                remaining = deadline - self.clock()
                if remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)
        return True

    def stream(self, timeout: float = 30.0, poll_s: float = 0.5):
        """Yield :class:`JobUpdate` items until terminal (or ``timeout``).

        The generator re-yields nothing it already delivered; it ends after
        the update that made the job terminal, or once ``timeout`` seconds
        pass without the job finishing.
        """
        seen = 0
        deadline = self.clock() + timeout
        while True:
            with self._cond:
                while seen >= len(self.updates):
                    if self.terminal or self.clock() >= deadline:
                        return
                    self._cond.wait(timeout=poll_s)
                fresh = self.updates[seen:]
                seen = len(self.updates)
            for update in fresh:
                yield update
            if self.terminal and seen >= len(self.updates):
                return
            if self.clock() >= deadline:
                return

    def to_dict(self) -> dict:
        """JSON-able snapshot (the ``repro serve`` result-line shape)."""
        with self._cond:
            return {
                "job_id": self.job_id,
                "tenant": self.spec.tenant,
                "status": self.status,
                "iterations": self.iterations,
                "final_relres": self.final_relres,
                "latency_s": self.latency_s,
                "error": self.error,
                "shed_reason": self.shed_reason,
                "resumable": self.resumable,
                "resumed": self.resumed,
                "attempts": list(self.attempts),
                "checkpoint_dir": self.checkpoint_dir,
                "spec": self.spec.to_dict(),
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"JobRecord({self.job_id}, tenant={self.spec.tenant!r}, "
                f"status={self.status!r})")


class JobTable:
    """Thread-safe id/key -> record registry with monotone job ids."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_id: dict[str, JobRecord] = {}
        self._by_key: dict[str, JobRecord] = {}
        self._counter = itertools.count()

    def new_id(self) -> str:
        with self._lock:
            return f"job-{next(self._counter):05d}"

    def add(self, record: JobRecord) -> None:
        with self._lock:
            self._by_id[record.job_id] = record
            if record.spec.key is not None:
                self._by_key[record.spec.key] = record

    def by_key(self, key: str) -> JobRecord | None:
        with self._lock:
            return self._by_key.get(key, None)

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._by_id.get(job_id, None)
        if record is None:
            raise UnknownJob(f"no job {job_id!r}", job_id=job_id)
        return record

    def all(self) -> list[JobRecord]:
        with self._lock:
            return list(self._by_id.values())
