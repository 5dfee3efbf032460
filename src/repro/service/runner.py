"""Worker-side execution of one admitted job.

The runner turns a queued :class:`~repro.service.job.JobRecord` into a
terminal typed status.  Every job runs *chunked*: each pass runs
:class:`~repro.resilience.ResilientSolver` for a bounded slice of the
iteration budget (at most :data:`CHUNK_ITERS`, whole FGMRES restart
cycles) checkpointing into the record's spool directory, then re-checks the
control signals — cancel, drain, deadline — before the next slice restores
from the newest snapshot and continues.  That is what makes a long solve
*interruptible*: drain and cancel latency is one chunk, never one whole
solve, and a drained job leaves a resumable checkpoint behind.

Robustness composition per chunk:

* the **breaker board** routes the job to the strongest non-tripped
  preconditioner before the attempt (``service.degraded`` event when the
  primary is skipped), and every attempt feeds back success/failure;
* the **deadline** clamps the chunk's ``maxiter`` via the learned
  seconds-per-iteration rate and shrinks the comm
  :class:`~repro.comm.communicator.RetryPolicy`
  (:func:`~repro.service.deadline.scaled_retry_policy`);
* **retry-with-backoff**: a chunk in which every attempt *raised* (e.g.
  comm faults exhausted the whole fallback chain) is retried after a
  bounded, drain-interruptible backoff wait, :data:`JOB_RETRIES` times;
* a **dead worker**: a chunk whose worker process was killed, or hung past
  its timeout and was fenced, comes back as one faulted attempt; the process
  is respawned (:mod:`.workers`) and the retry rung restores the job from
  its last checkpoint.

Where a chunk computes is :meth:`RunnerContext.run_chunk`'s choice, the one
seam tests script.  An in-process job's chunk is one ``RUN_CHUNK`` round to
the calling thread's own worker process, so two threads compute on two
cores; a ``backend="multiprocess"`` job computes in its rank processes
(``docs/algorithms.md`` §8) and is driven from the thread itself.
"""

from __future__ import annotations

import contextlib
import resource
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import faults, obs
from repro.cases import build_case
from repro.cases.base import TestCase
from repro.checkpoint import CheckpointManager
from repro.comm.backends import REAL_RETRY_POLICY
from repro.comm.communicator import RetryPolicy
from repro.comm.compute import HEAVY_FLOOR
from repro.resilience import FAILURE_STATUSES, ResilientSolver, resilient
from repro.service.breaker import BreakerBoard
from repro.service.deadline import (
    Deadline,
    IterationRateEstimator,
    iteration_budget,
    scaled_retry_policy,
)
from repro.service.job import JobRecord

#: FGMRES restart length (mirrors the solve_case default; chunk sizes are
#: whole multiples so every chunk ends on a checkpointable cycle boundary)
RESTART = 20
#: the largest chunk, in iterations (five restart cycles)
CHUNK_ITERS = 5 * RESTART
#: job-level retries of a chunk whose every attempt raised, and the first
#: backoff before one (doubling per retry)
JOB_RETRIES = 1
RETRY_BACKOFF_S = 0.05
#: how long a worker round waits for a chunk of a job without a deadline
#: (one with a deadline waits at most what is left of it)
CHUNK_TIMEOUT_S = HEAVY_FLOOR


class CaseCache:
    """Build-once cache of TestCase instances keyed by (case, size)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cases: dict[tuple, list] = {}  # key -> [its build lock, case]

    def get(self, case_key: str, size: int | None) -> TestCase:
        with self._lock:
            slot = self._cases.setdefault(
                (case_key, size), [threading.Lock(), None])
        with slot[0]:  # one build per cold key; no other key waits for it
            if slot[1] is None:
                slot[1] = build_case(case_key, size)
            return slot[1]


@dataclass
class Chunk:
    """What one chunk reports back, wherever it ran."""

    status: str
    attempts: list[dict]  # precond, kind, status, iterations, fault
    residuals: list[float] = field(default_factory=list)
    precond: str | None = None  # the outcome's; None when every attempt raised
    relres: float | None = None  # |b - A x| / |b - A x0|, once converged

    @property
    def converged(self) -> bool:
        return self.precond is not None and self.status == "converged"

    @classmethod
    def of(cls, res, case: TestCase | None = None) -> "Chunk":
        """A :class:`ResilientSolver` result as a chunk; ``case`` gives the
        relative residual of a converged one."""
        out = res.outcome
        chunk = cls(res.status, [
            {"precond": a.precond, "kind": a.kind, "status": a.status,
             "iterations": a.iterations, "fault": a.fault}
            for a in res.attempts
        ])
        if out is not None:
            chunk.precond = out.precond
            chunk.residuals = [float(r) for r in out.residuals]
            if res.converged and case is not None and out.x_global is not None:
                chunk.relres = _relative_residual(case, out.x_global)
        return chunk


def solve_chunk(case: TestCase, kwargs: dict) -> Chunk:
    """One chunk, solved in this process."""
    return Chunk.of(ResilientSolver().solve(case, **kwargs), case)


#: a worker process's cases (its factor cache and partition memo key on them)
_WORKER_CASES = CaseCache()


def serve_chunk(meta: dict) -> tuple[dict, list]:
    """The ``RUN_CHUNK`` handler, in a worker process: one chunk of the job
    ``meta`` names, solved here under the fault plan it lends, if any."""
    kwargs = dict(meta["kwargs"])
    kwargs["retry_policy"] = RetryPolicy(**kwargs["retry_policy"])
    case = _WORKER_CASES.get(meta["case"], meta["size"])
    plan = faults.FaultPlan.borrowed(meta["faults"]) if meta["faults"] else None
    with faults.inject(plan) if plan else contextlib.nullcontext():
        chunk = solve_chunk(case, kwargs)
    return {
        "status": chunk.status, "attempts": chunk.attempts,
        "precond": chunk.precond, "relres": chunk.relres,
        "faults": plan.loan_back() if plan else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }, [np.asarray(chunk.residuals, dtype=np.float64)]


@dataclass
class RunnerContext:
    """Everything a worker needs besides the record itself."""

    breakers: BreakerBoard
    rates: IterationRateEstimator
    cases: CaseCache
    draining: threading.Event
    clock: object
    workers: object = None  # the service's WorkerPool

    def run_chunk(self, record: JobRecord, kwargs: dict,
                  timeout: float) -> Chunk:
        """Run one chunk of ``record``'s job: ``ResilientSolver().solve``
        with ``kwargs``.  Tests script a service by assigning an attribute
        of this name."""
        spec = record.spec
        if spec.backend != "multiprocess":
            return self.workers.run_chunk(record.worker, spec, kwargs, timeout)
        return solve_chunk(self.cases.get(spec.case, spec.size), kwargs)


def _route_precond(primary: str, breakers: BreakerBoard) -> tuple[str, bool]:
    """Strongest non-tripped preconditioner, primary first."""
    chain = (primary,) + tuple(n for n in resilient.FALLBACK_CHAIN if n != primary)
    for name in chain:
        if breakers.allow(name):
            return name, name != primary
    return "jacobi", True  # unreachable: jacobi is unbreakable


def _feed_breakers(breakers: BreakerBoard, attempts: list[dict]) -> None:
    for a in attempts:
        if a["fault"] is not None or a["status"] in FAILURE_STATUSES:
            breakers.record_failure(a["precond"])
        elif a["status"] in ("converged", "maxiter"):
            breakers.record_success(a["precond"])


def _relative_residual(case: TestCase, x: np.ndarray) -> float:
    """|b - A x| / |b - A x0| — convergence vs the *original* target."""
    r = case.rhs - case.matrix @ x
    r0 = case.rhs - case.matrix @ case.x0
    denom = float(np.linalg.norm(r0))
    if denom <= 0.0:
        denom = 1.0
    return float(np.linalg.norm(r)) / denom


def run_job(record: JobRecord, ctx: RunnerContext) -> None:
    """Drive ``record`` to a terminal status.  Never raises ServiceFaults
    at the caller; unexpected exceptions are the worker loop's problem."""
    spec = record.spec
    # anchored at submission: time spent queued spends the same budget
    deadline = Deadline(spec.deadline_s, clock=ctx.clock,
                        start=record.created_t)

    if record.cancel_requested:
        record.transition("cancelled", where="queued")
        obs.event("service.cancelled", job=record.job_id, where="queued")
        return
    if deadline.expired:
        record.shed_reason = "deadline"
        record.transition("shed", reason="deadline", where="queued")
        obs.event("service.shed", job=record.job_id, reason="deadline",
                  where="queued")
        return

    record.transition("running", worker=record.worker)
    # the job's spool directory exists while it runs; a snapshot lands in it
    # only for a cycle the job could resume from, never the converged one
    Path(record.checkpoint_dir).mkdir(parents=True, exist_ok=True)
    obs.event("service.dispatch", job=record.job_id, tenant=spec.tenant,
              worker=record.worker, precond=spec.precond)

    rate_key = (spec.case, spec.size, spec.precond, spec.nparts)
    # the per-transfer policy the deadline scales down from
    base_policy = (REAL_RETRY_POLICY if spec.backend == "multiprocess"
                   else RetryPolicy())

    manager = CheckpointManager(record.checkpoint_dir, prefix="solve")

    iters_done = 0
    retries_left = JOB_RETRIES
    resume = record.resumed
    status = "failed"
    detail: dict = {}

    while True:
        # -- control signals, checked at every chunk boundary ---------------
        if record.cancel_requested:
            status, detail = "cancelled", {"after_iters": iters_done}
            break
        if ctx.draining.is_set():
            record.resumable = bool(manager.steps())
            record.shed_reason = "drained"
            status = "shed"
            detail = {"reason": "drained", "resumable": record.resumable,
                      "after_iters": iters_done}
            break
        if deadline.expired:
            record.error = (f"deadline of {spec.deadline_s}s exceeded after "
                            f"{iters_done} iteration(s)")
            status, detail = "failed", {"reason": "deadline"}
            break
        budget_left = spec.maxiter - iters_done
        if budget_left <= 0:
            record.error = f"iteration budget {spec.maxiter} exhausted"
            status, detail = "failed", {"reason": "maxiter"}
            break

        # -- deadline -> iteration budget -> comm retry policy --------------
        remaining = deadline.remaining()
        chunk = min(budget_left, iteration_budget(
            remaining, ctx.rates.estimate(rate_key), RESTART,
            min(CHUNK_ITERS, budget_left),
        ))
        policy = scaled_retry_policy(base_policy, remaining)
        if policy is not base_policy:
            obs.event("service.deadline.clamp", job=record.job_id,
                      remaining_s=remaining, timeout=policy.timeout)

        eff_precond, degraded = _route_precond(spec.precond, ctx.breakers)
        if degraded:
            obs.event("service.degraded", job=record.job_id,
                      from_=spec.precond, to=eff_precond,
                      breaker=ctx.breakers.state(spec.precond))

        t0 = ctx.clock()
        res = ctx.run_chunk(record, dict(
            precond=eff_precond, nparts=spec.nparts, seed=spec.seed,
            scheme=spec.scheme, rtol=spec.rtol, maxiter=chunk,
            backend=spec.backend, retry_policy=policy,
            checkpoint_dir=record.checkpoint_dir, checkpoint_every=1,
            restore=resume,
        ), min(remaining, CHUNK_TIMEOUT_S))
        wall = ctx.clock() - t0
        consumed = sum(a["iterations"] for a in res.attempts)
        iters_done += consumed
        record.iterations = iters_done
        ctx.rates.observe(rate_key, wall, max(consumed, 1))
        _feed_breakers(ctx.breakers, res.attempts)
        record.attempts.extend(res.attempts)
        record.residuals.extend(res.residuals)
        record.progress(iterations=iters_done, chunk_status=res.status,
                        precond=eff_precond, wall_s=wall)

        if res.converged:
            record.final_relres = res.relres
            status = "converged"
            detail = {"iterations": iters_done, "precond": res.precond,
                      "relres": record.final_relres}
            break

        if res.precond is None:
            # every attempt raised a typed fault (or its worker died): the
            # job-level retry rung, unless a drain or the deadline is due,
            # which the boundary checks type (a drained job stays resumable)
            if ctx.draining.is_set() or deadline.expired:
                continue
            if retries_left > 0:
                retries_left -= 1
                backoff = RETRY_BACKOFF_S * 2 ** (JOB_RETRIES - retries_left - 1)
                backoff = min(backoff, max(deadline.remaining(), 0.0))
                obs.event("service.retry", job=record.job_id,
                          backoff_s=backoff, retries_left=retries_left,
                          reason=res.attempts[-1]["fault"] if res.attempts
                          else res.status)
                if backoff > 0:
                    # drain-interruptible wait; wakes early on shutdown
                    ctx.draining.wait(timeout=backoff)
                resume = bool(manager.steps())
                continue
            record.error = (res.attempts[-1]["fault"] if res.attempts
                            else "all attempts faulted")
            status, detail = "failed", {"reason": res.status}
            break

        if res.status == "maxiter":
            # honest budget exhaustion of *this chunk*: checkpointed, so the
            # next pass restores and continues the same solve
            resume = True
            continue

        record.error = f"solver ended with status {res.status!r}"
        status, detail = "failed", {"reason": res.status}
        break

    record.transition(status, **detail)
    obs.event("service.complete", job=record.job_id, status=status,
              iterations=iters_done, tenant=spec.tenant)
