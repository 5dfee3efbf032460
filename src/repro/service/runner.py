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
  bounded, drain-interruptible backoff wait, :data:`JOB_RETRIES` times.

Worker threads overlap I/O and waits on rank processes; in-process
arithmetic runs one chunk at a time, in the compute lane (:mod:`.lane`).  A
``backend="multiprocess"`` job computes in its rank processes
(``docs/algorithms.md`` §8) and never takes it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cases import build_case
from repro.cases.base import TestCase
from repro.checkpoint import CheckpointManager
from repro.comm.backends import resolve_backend_name
from repro.comm.communicator import RetryPolicy
from repro.resilience import FAILURE_STATUSES, FALLBACK_CHAIN, ResilientSolver
from repro.service.breaker import BreakerBoard
from repro.service.deadline import (
    Deadline,
    IterationRateEstimator,
    iteration_budget,
    scaled_retry_policy,
)
from repro.service.job import JobRecord
from repro.service.lane import PROCESS_LANE, ComputeLane

#: FGMRES restart length (mirrors the solve_case default; chunk sizes are
#: whole multiples so every chunk ends on a checkpointable cycle boundary)
RESTART = 20
#: the largest chunk, in iterations (five restart cycles)
CHUNK_ITERS = 5 * RESTART
#: job-level retries of a chunk whose every attempt raised, and the first
#: backoff before one (doubling per retry)
JOB_RETRIES = 1
RETRY_BACKOFF_S = 0.05


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
class RunnerContext:
    """Everything a worker needs besides the record itself."""

    breakers: BreakerBoard
    rates: IterationRateEstimator
    cases: CaseCache
    draining: threading.Event
    clock: object
    solver_factory: object = field(default=ResilientSolver)
    lane: ComputeLane = PROCESS_LANE
    poll_s: float = 0.05


def _base_retry_policy(backend: str | None) -> RetryPolicy:
    """The per-transfer policy the deadline scales down from."""
    if backend == "multiprocess":
        return RetryPolicy(max_retries=3, timeout=0.1, backoff=2.0)
    return RetryPolicy()


def _route_precond(primary: str, breakers: BreakerBoard) -> tuple[str, bool]:
    """Strongest non-tripped preconditioner, primary first."""
    chain = (primary,) + tuple(n for n in FALLBACK_CHAIN if n != primary)
    for name in chain:
        if breakers.allow(name):
            return name, name != primary
    return "jacobi", True  # unreachable: jacobi is unbreakable


def _feed_breakers(breakers: BreakerBoard, attempts: list) -> None:
    for a in attempts:
        if a.fault is not None or a.status in FAILURE_STATUSES:
            breakers.record_failure(a.precond)
        elif a.status in ("converged", "maxiter"):
            breakers.record_success(a.precond)


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
    obs.event("service.dispatch", job=record.job_id, tenant=spec.tenant,
              worker=record.worker, precond=spec.precond)

    case = ctx.cases.get(spec.case, spec.size)
    rate_key = (spec.case, spec.size, spec.precond, spec.nparts)
    base_policy = _base_retry_policy(spec.backend)

    manager = CheckpointManager(record.checkpoint_dir, prefix="solve")

    # where the arithmetic runs decides who takes the lane, and nothing else
    lane = ctx.lane if resolve_backend_name(spec.backend) == "inprocess" \
        else None
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

        # -- the compute lane: its wait spends the deadline as queue wait does
        held, waited = lane.acquire(ctx.poll_s, lambda: (
            record.cancel_requested or ctx.draining.is_set()
            or deadline.expired)) if lane else (True, 0.0)
        record.lane_wait_s += waited
        if waited > ctx.poll_s:
            obs.event("service.lane.wait", job=record.job_id, wait_s=waited)
        if not held:
            continue  # a signal fired in the wait: the checks above type it
        try:
            # -- deadline -> iteration budget -> comm retry policy ----------
            remaining = deadline.remaining()  # taken with the lane in hand
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
            res = ctx.solver_factory().solve(
                case, precond=eff_precond, nparts=spec.nparts, seed=spec.seed,
                scheme=spec.scheme, rtol=spec.rtol, maxiter=chunk,
                backend=spec.backend, retry_policy=policy,
                checkpoint_dir=record.checkpoint_dir, checkpoint_every=1,
                restore=resume,
            )
            wall = ctx.clock() - t0
        finally:
            if lane:
                lane.release()
        consumed = sum(a.iterations for a in res.attempts)
        iters_done += consumed
        record.iterations = iters_done
        ctx.rates.observe(rate_key, wall, max(consumed, 1))
        _feed_breakers(ctx.breakers, res.attempts)
        record.attempts.extend(
            {"precond": a.precond, "kind": a.kind, "status": a.status,
             "iterations": a.iterations, "fault": a.fault}
            for a in res.attempts
        )
        if res.outcome is not None:
            record.residuals.extend(float(r) for r in res.outcome.residuals)
        record.progress(iterations=iters_done, chunk_status=res.status,
                        precond=eff_precond, wall_s=wall,
                        lane_wait_s=record.lane_wait_s)

        if res.converged:
            out = res.outcome
            if out.x_global is not None:
                record.final_relres = _relative_residual(case, out.x_global)
            status = "converged"
            detail = {"iterations": iters_done, "precond": out.precond,
                      "relres": record.final_relres}
            break

        if res.outcome is None:
            # every attempt raised a typed fault: the job-level retry rung
            if retries_left > 0 and not deadline.expired \
                    and not ctx.draining.is_set():
                retries_left -= 1
                backoff = RETRY_BACKOFF_S * 2 ** (JOB_RETRIES - retries_left - 1)
                backoff = min(backoff, max(deadline.remaining(), 0.0))
                obs.event("service.retry", job=record.job_id,
                          backoff_s=backoff, retries_left=retries_left,
                          reason=res.attempts[-1].fault if res.attempts
                          else res.status)
                if backoff > 0:
                    # drain-interruptible wait; wakes early on shutdown
                    ctx.draining.wait(timeout=backoff)
                resume = bool(manager.steps())
                continue
            record.error = (res.attempts[-1].fault if res.attempts
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
