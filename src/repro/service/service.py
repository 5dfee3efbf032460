"""The multi-tenant solve service: submit, observe, drain.

:class:`SolveService` is the in-process front-end (the ``repro serve`` CLI
wraps it): clients submit :class:`~repro.service.job.JobSpec`s, admission
control (:mod:`repro.service.admission`) sheds overload with typed
:class:`~repro.service.errors.ServiceOverload` rejections, and a pool of
worker threads drains the fair-share queues through
:func:`~repro.service.runner.run_job` on the existing execution backends.
Every job ends in exactly one terminal typed status — ``converged``,
``failed``, ``shed``, or ``cancelled`` — observable via
:meth:`wait` / :meth:`stream` / :meth:`job`.

Graceful drain (``docs/service.md``): :meth:`drain` stops admission
(further submits shed with reason ``"draining"``), flushes the queues
(queued jobs shed as ``drained``), lets running jobs reach their next
chunk boundary — where they checkpoint and shed as *resumable* — then
writes a ``repro.service.drain.v1`` manifest so a successor process can
:meth:`resume` every interrupted job from its snapshot.

Processes: each worker thread owns one worker process
(:mod:`repro.service.workers`), forked by :meth:`start` before any thread
runs, and computes every in-process chunk there; the threads themselves
only coordinate.  Admission, breakers, deadlines, drain/resume, cancel and
idempotent submits all stay in this process.  Worker threads only touch
thread-safe structures (the admission queues, the breaker board,
per-record condition variables, the rate estimator) and their own worker
slot.  A traced run sees the service's events; the solves' spans stay in
the worker processes, whose tracer is off.  All blocking calls carry
explicit timeouts (lint rule RPR009).
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.service.admission import AdmissionController, TenantPolicy
from repro.service.breaker import BreakerBoard
from repro.service.deadline import IterationRateEstimator
from repro.service.errors import ServiceOverload, ServiceShutdown
from repro.service.job import JobRecord, JobSpec, JobTable
from repro.service.runner import CaseCache, RunnerContext, run_job
from repro.service.workers import WorkerPool

DRAIN_SCHEMA = "repro.service.drain.v1"

#: how long an idle worker thread waits on the queues between stop checks
POLL_S = 0.05


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide knobs; per-tenant policy lives in ``policies``."""

    workers: int = 2
    max_total_queue: int = 64
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    drain_timeout_s: float = 30.0
    spool_dir: str | None = None    # None = private temp dir

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be > 0")


class SolveService:
    """Admission-controlled, deadline-aware, drainable solve front-end."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        policies: dict[str, TenantPolicy] | None = None,
        clock=time.monotonic,
    ) -> None:
        self.config = config or ServiceConfig()
        self.clock = clock
        self.spool_dir = Path(
            self.config.spool_dir
            or tempfile.mkdtemp(prefix="repro-service-")
        )
        self.admission = AdmissionController(
            default_policy=self.config.default_policy,
            policies=policies,
            max_total=self.config.max_total_queue,
            clock=clock,
        )
        self.breakers = BreakerBoard(clock=clock)
        self.rates = IterationRateEstimator()
        self.jobs = JobTable()
        self._draining = threading.Event()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._started = False
        self._ctx = RunnerContext(
            breakers=self.breakers,
            rates=self.rates,
            cases=CaseCache(),
            draining=self._draining,
            clock=clock,
            workers=WorkerPool(self.config.workers),
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SolveService":
        if self._started:
            return self
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        pool = self._ctx.workers
        pool.start()  # fork first: no thread of ours is running yet
        for i, name in enumerate(pool.names):
            t = threading.Thread(
                target=self._worker_loop, args=(name,),
                name=f"repro-service-worker-{i}", daemon=True,
            )
            t.start()
            self._threads.append(t)
        self._started = True
        obs.event("service.start", workers=self.config.workers,
                  spool=str(self.spool_dir))
        return self

    def __enter__(self) -> "SolveService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _worker_loop(self, name: str) -> None:
        while not self._stop.is_set():
            record = self.admission.next_job(timeout=POLL_S)
            if record is None:
                continue
            record.worker = name
            try:
                run_job(record, self._ctx)
            except Exception as exc:  # the terminal-status guarantee:
                # nothing escapes a worker without classifying the job
                record.error = f"{type(exc).__name__}: {exc}"
                if not record.terminal:
                    if record.status == "queued":
                        record.transition("running", worker=name)
                    record.transition("failed", reason="internal-error")
                obs.event("service.worker_error", worker=name,
                          job=record.job_id, error=record.error)

    # -- submission --------------------------------------------------------

    def submit(
        self, spec: JobSpec | dict, *, _resume_from: dict | None = None
    ) -> JobRecord:
        """Admit ``spec`` (or raise :class:`ServiceOverload` /
        :class:`ServiceShutdown`).  Idempotent on ``spec.key``: an already
        -known key returns its existing record, whatever its status."""
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        if not self._started or self._stop.is_set():
            raise ServiceShutdown("service is not running")
        if spec.key is not None:
            existing = self.jobs.by_key(spec.key)
            if existing is not None:
                obs.event("service.dedup", job=existing.job_id, key=spec.key)
                return existing
        job_id = self.jobs.new_id()
        record = JobRecord(
            job_id, spec, clock=self.clock,
            checkpoint_dir=str(self.spool_dir / job_id),
        )
        if _resume_from is not None and _resume_from.get("resumable") \
                and _resume_from.get("checkpoint_dir"):
            # set before admission: a worker may dispatch the instant the
            # record is queued, and must already see the restore fields
            record.checkpoint_dir = _resume_from["checkpoint_dir"]
            record.resumed = True
        if self._draining.is_set():
            return self._shed_submission(
                record, "draining", "service is draining"
            )
        try:
            self.admission.submit(record)
        except ServiceOverload as exc:
            return self._shed_submission(record, exc.reason, str(exc))
        self.jobs.add(record)
        obs.event("service.submit", job=record.job_id, tenant=spec.tenant,
                  case=spec.case, precond=spec.precond,
                  deadline_s=spec.deadline_s)
        return record

    def _shed_submission(
        self, record: JobRecord, reason: str, message: str
    ) -> JobRecord:
        """Shed at admission: record it, then raise with the record attached."""
        record.shed_reason = reason
        record.transition("shed", reason=reason, where="admission")
        self.jobs.add(record)
        obs.event("service.shed", job=record.job_id,
                  tenant=record.spec.tenant, reason=reason,
                  where="admission")
        raise ServiceOverload(
            message, reason=reason, record=record, tenant=record.spec.tenant
        )

    # -- observation / control --------------------------------------------

    def job(self, job_id: str) -> JobRecord:
        return self.jobs.get(job_id)

    def all_jobs(self) -> list[JobRecord]:
        return self.jobs.all()

    def wait(self, job_id: str, timeout: float = 60.0) -> JobRecord:
        record = self.jobs.get(job_id)
        record.wait(timeout=timeout)
        return record

    def wait_all(self, timeout: float = 60.0) -> bool:
        """True when every known job reached a terminal status in time."""
        deadline = self.clock() + timeout
        for record in self.jobs.all():
            remaining = deadline - self.clock()
            if remaining <= 0 or not record.wait(timeout=remaining):
                return False
        return True

    def stream(self, job_id: str, timeout: float = 60.0):
        return self.jobs.get(job_id).stream(timeout=timeout)

    def cancel(self, job_id: str) -> JobRecord:
        """Request cancellation; queued jobs cancel at dispatch, running
        jobs at their next chunk boundary."""
        record = self.jobs.get(job_id)
        record.request_cancel()
        obs.event("service.cancel", job=job_id, status=record.status)
        return record

    def stats(self) -> dict:
        jobs = self.jobs.all()
        by_status: dict[str, int] = {}
        for record in jobs:
            by_status[record.status] = by_status.get(record.status, 0) + 1
        return {
            "jobs": len(jobs),
            "by_status": by_status,
            "admission": self.admission.stats(),
            "breakers": self.breakers.stats(),
            "workers": self._ctx.workers.stats(),
            "draining": self._draining.is_set(),
        }

    # -- drain / shutdown --------------------------------------------------

    def drain(self, timeout: float | None = None) -> dict:
        """Graceful stop: shed the queues, let running jobs checkpoint,
        write and return the ``repro.service.drain.v1`` manifest."""
        timeout = self.config.drain_timeout_s if timeout is None else timeout
        obs.event("service.drain.begin", queued=self.admission.depth())
        self._draining.set()
        for record in self.admission.flush():
            record.shed_reason = "drained"
            record.transition("shed", reason="drained", where="queued")
            obs.event("service.shed", job=record.job_id, reason="drained",
                      where="queued")

        deadline = self.clock() + timeout
        for record in self.jobs.all():
            remaining = deadline - self.clock()
            if remaining <= 0:
                break
            record.wait(timeout=remaining)

        self._stop.set()
        for t in self._threads:
            t.join(timeout=1.0)  # a thread sees _stop within one POLL_S
        self._threads = []
        self._ctx.workers.shutdown()

        manifest = self._drain_manifest()
        path = self.spool_dir / "drain.json"
        from repro.utils.atomic import atomic_write_text

        atomic_write_text(path, json.dumps(manifest, indent=2) + "\n")
        obs.event("service.drain.done", manifest=str(path),
                  resumable=sum(1 for j in manifest["jobs"] if j["resumable"]))
        return manifest

    def _drain_manifest(self) -> dict:
        jobs = []
        for record in self.jobs.all():
            if record.status == "shed" or not record.terminal:
                jobs.append({
                    "job_id": record.job_id,
                    "spec": record.spec.to_dict(),
                    "status": record.status,
                    "shed_reason": record.shed_reason,
                    "resumable": record.resumable,
                    "checkpoint_dir": record.checkpoint_dir
                    if record.resumable else None,
                    "iterations_done": record.iterations,
                })
        return {
            "schema": DRAIN_SCHEMA,
            "spool_dir": str(self.spool_dir),
            "jobs": jobs,
            "stats": self.stats(),
        }

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop workers without the manifest ceremony (tests, __exit__)."""
        if not self._started:
            return
        self._draining.set()
        self._stop.set()
        for record in self.admission.flush():
            record.shed_reason = "drained"
            record.transition("shed", reason="drained", where="queued")
        for t in self._threads:
            t.join(timeout=timeout)
        self._threads = []
        self._ctx.workers.shutdown()
        self._started = False
        obs.event("service.shutdown")

    def resume(self, manifest: dict | str | Path) -> list[JobRecord]:
        """Re-submit every job of a drain manifest; checkpointed jobs
        continue from their snapshot (``restore=True`` on the first chunk).

        Admission applies as usual — a successor under pressure may shed
        resumed jobs again, typed as ever.
        """
        if not isinstance(manifest, dict):
            manifest = json.loads(Path(manifest).read_text())
        if manifest.get("schema") != DRAIN_SCHEMA:
            raise ValueError(
                f"not a {DRAIN_SCHEMA} manifest "
                f"(schema={manifest.get('schema')!r})"
            )
        resumed = []
        for entry in manifest["jobs"]:
            spec = JobSpec.from_dict(entry["spec"])
            try:
                record = self.submit(spec, _resume_from=entry)
            except ServiceOverload as exc:
                resumed.append(exc.record)  # shed again, typed as ever
                continue
            obs.event("service.resume", job=record.job_id,
                      prior=entry["job_id"], resumed=record.resumed)
            resumed.append(record)
        return resumed
