"""SolveService end to end: admission, breakers, deadlines, drain, resume.

Deterministic tests inject a scripted solver via ``svc._ctx.solver_factory``
(a gate-blocked fake makes queue states observable); a couple of real-solve
tests keep the service honest against the actual FGMRES stack.
"""

import threading
import time

import numpy as np
import pytest

from repro.checkpoint import CheckpointManager
from repro.service import (
    DRAIN_SCHEMA,
    JobSpec,
    ServiceConfig,
    ServiceOverload,
    ServiceShutdown,
    SolveService,
    TenantPolicy,
)

SMALL = dict(case="tc1", size=13, nparts=2)


# -- scripted solver scaffolding ----------------------------------------------

class FakeAttempt:
    def __init__(self, precond, status="converged", iterations=5,
                 fault=None, kind="primary"):
        self.precond = precond
        self.status = status
        self.iterations = iterations
        self.fault = fault
        self.kind = kind


class FakeOutcome:
    def __init__(self, precond, residuals=(1.0, 1e-9), x_global=None):
        self.precond = precond
        self.residuals = list(residuals)
        self.x_global = x_global


class FakeResult:
    def __init__(self, status="converged", precond="schur1", iterations=5,
                 outcome="auto"):
        self.status = status
        self.converged = status == "converged"
        self.attempts = [FakeAttempt(precond, status=status,
                                     iterations=iterations)]
        self.outcome = (FakeOutcome(precond) if outcome == "auto"
                        else outcome)


def scripted_factory(fn):
    """solver_factory whose solve() delegates to ``fn(case, kwargs)``."""
    class _Solver:
        def solve(self, case, **kwargs):
            return fn(case, kwargs)

    return _Solver


def gate_factory(gate, calls=None):
    """Blocks every solve on ``gate``; converges once it opens."""
    def fn(case, kwargs):
        if calls is not None:
            calls.append(kwargs)
        assert gate.wait(timeout=30.0), "test gate never opened"
        return FakeResult(precond=kwargs["precond"])

    return scripted_factory(fn)


def wait_until(pred, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture
def spool(tmp_path):
    return str(tmp_path / "spool")


def make_service(spool, *, workers=1, gate=None, calls=None, **cfg):
    svc = SolveService(ServiceConfig(workers=workers, spool_dir=spool, **cfg))
    if gate is not None:
        svc._ctx.solver_factory = gate_factory(gate, calls)
    return svc


# -- real solves --------------------------------------------------------------

class TestRealSolve:
    def test_job_converges_to_original_tolerance(self, spool):
        with make_service(spool, workers=2) as svc:
            rec = svc.submit(JobSpec(**SMALL))
            assert svc.wait(rec.job_id, timeout=60.0).status == "converged"
        assert rec.final_relres is not None
        assert rec.final_relres <= rec.spec.rtol * 10
        assert rec.iterations > 0 and rec.residuals
        assert rec.attempts[0]["precond"] == "schur1"
        assert rec.latency_s is not None

    def test_failed_solve_is_typed_not_raised(self, spool):
        # an impossibly small iteration budget exhausts maxiter
        with make_service(spool, workers=1) as svc:
            rec = svc.submit(JobSpec(**SMALL, precond="none", maxiter=2,
                                     rtol=1e-14))
            svc.wait(rec.job_id, timeout=60.0)
        assert rec.status == "failed"
        assert rec.error is not None


# -- submission ---------------------------------------------------------------

class TestSubmission:
    def test_submit_before_start_raises_typed(self, spool):
        svc = SolveService(ServiceConfig(spool_dir=spool))
        with pytest.raises(ServiceShutdown):
            svc.submit(JobSpec(**SMALL))

    def test_idempotent_key_returns_existing_record(self, spool):
        gate = threading.Event()
        with make_service(spool, gate=gate) as svc:
            a = svc.submit(JobSpec(**SMALL, key="job-key"))
            b = svc.submit(JobSpec(**SMALL, key="job-key"))
            gate.set()
            assert b is a
            svc.wait_all(timeout=30.0)
            # terminal jobs dedup too: the key still owns its record
            assert svc.submit(JobSpec(**SMALL, key="job-key")) is a

    def test_dict_specs_accepted(self, spool):
        gate = threading.Event()
        gate.set()
        with make_service(spool, gate=gate) as svc:
            rec = svc.submit({"tenant": "t", **SMALL})
            assert svc.wait(rec.job_id, timeout=30.0).status == "converged"


class TestOverload:
    def test_all_three_gates_shed_typed_with_records(self, spool):
        gate = threading.Event()
        svc = make_service(
            spool, workers=1, gate=gate, max_total_queue=2,
            default_policy=TenantPolicy(max_queue=1),
        ).start()
        try:
            running = svc.submit(JobSpec(**SMALL, tenant="a"))
            assert wait_until(lambda: running.status == "running")
            svc.submit(JobSpec(**SMALL, tenant="a"))  # queued (a: 1/1)
            with pytest.raises(ServiceOverload) as err:
                svc.submit(JobSpec(**SMALL, tenant="a"))
            assert err.value.reason == "tenant-queue-full"
            assert err.value.record.status == "shed"
            assert err.value.record.shed_reason == "tenant-queue-full"

            svc.submit(JobSpec(**SMALL, tenant="b"))  # queued (total 2/2)
            with pytest.raises(ServiceOverload) as err:
                svc.submit(JobSpec(**SMALL, tenant="c"))
            assert err.value.reason == "global-queue-full"

            gate.set()
            assert svc.wait_all(timeout=30.0)
            stats = svc.stats()
            assert stats["by_status"]["shed"] == 2
            assert stats["by_status"]["converged"] == 3
            assert stats["admission"]["shed"] == {
                "tenant-queue-full": 1, "global-queue-full": 1,
            }
        finally:
            gate.set()
            svc.shutdown()

    def test_shed_records_stay_queryable(self, spool):
        gate = threading.Event()
        svc = make_service(spool, workers=1, gate=gate,
                           max_total_queue=1).start()
        try:
            running = svc.submit(JobSpec(**SMALL))
            assert wait_until(lambda: running.status == "running")
            svc.submit(JobSpec(**SMALL))
            with pytest.raises(ServiceOverload) as err:
                svc.submit(JobSpec(**SMALL))
            shed_id = err.value.record.job_id
            assert svc.job(shed_id).status == "shed"
            assert shed_id in {r.job_id for r in svc.all_jobs()}
        finally:
            gate.set()
            svc.shutdown()


# -- control signals ----------------------------------------------------------

class TestCancel:
    def test_queued_job_cancels_at_dispatch(self, spool):
        gate = threading.Event()
        svc = make_service(spool, workers=1, gate=gate).start()
        try:
            running = svc.submit(JobSpec(**SMALL))
            assert wait_until(lambda: running.status == "running")
            queued = svc.submit(JobSpec(**SMALL))
            svc.cancel(queued.job_id)
            gate.set()
            assert svc.wait_all(timeout=30.0)
            assert queued.status == "cancelled"
            assert running.status == "converged"
        finally:
            gate.set()
            svc.shutdown()


class TestWorkerError:
    def test_raising_solver_yields_terminal_failed(self, spool):
        def explode(case, kwargs):
            raise RuntimeError("kaboom")

        with make_service(spool, workers=1) as svc:
            svc._ctx.solver_factory = scripted_factory(explode)
            rec = svc.submit(JobSpec(**SMALL))
            svc.wait(rec.job_id, timeout=30.0)
        assert rec.status == "failed"
        assert "RuntimeError: kaboom" in rec.error
        assert rec.updates[-1].detail["reason"] == "internal-error"

    def test_more_parts_than_grid_points_fails_the_job_not_the_worker(self, spool):
        # only the worker knows the mesh: the partitioner's ValueError ends
        # the job typed, with both numbers, and the worker keeps serving
        with make_service(spool, workers=1) as svc:
            bad = svc.submit(JobSpec(case="tc1", size=3, nparts=20))
            assert svc.wait(bad.job_id, timeout=30.0).status == "failed"
            assert "nparts=20" in bad.error and "9 vertices" in bad.error
            assert bad.updates[-1].detail["reason"] == "internal-error"
            rec = svc.submit(JobSpec(**SMALL))
            assert svc.wait(rec.job_id, timeout=60.0).status == "converged"

    def test_unknown_case_cannot_wedge_the_only_worker(self, spool):
        # an unknown case used to reach the worker and raise SystemExit
        # past its ``except Exception``: the thread died, the job stayed
        # "running" and a workers=1 service stopped serving
        with make_service(spool, workers=1) as svc:
            with pytest.raises(ValueError, match="unknown case"):
                svc.submit({**SMALL, "case": "nope"})
            with pytest.raises(ValueError, match="unknown case"):
                svc.resume({"schema": DRAIN_SCHEMA, "jobs": [
                    {"job_id": "job-1", "spec": {**SMALL, "case": "nope"}},
                ]})
            rec = svc.submit(JobSpec(**SMALL))
            assert svc.wait(rec.job_id, timeout=60.0).status == "converged"
            assert all(t.is_alive() for t in svc._threads)


class TestBreakerRouting:
    def test_tripped_primary_degrades_down_the_chain(self, spool):
        calls = []

        def fn(case, kwargs):
            calls.append(kwargs["precond"])
            return FakeResult(precond=kwargs["precond"])

        with make_service(spool, workers=1) as svc:
            svc._ctx.solver_factory = scripted_factory(fn)
            for _ in range(3):
                svc.breakers.record_failure("schur1")
            rec = svc.submit(JobSpec(**SMALL, precond="schur1"))
            svc.wait(rec.job_id, timeout=30.0)
        assert rec.status == "converged"
        assert calls == ["schur2"]  # strongest non-tripped fallback
        assert rec.attempts[0]["precond"] == "schur2"


class TestDeadline:
    def test_expiring_in_the_queue_sheds_typed(self, spool):
        gate = threading.Event()
        svc = make_service(spool, workers=1, gate=gate).start()
        try:
            running = svc.submit(JobSpec(**SMALL))
            assert wait_until(lambda: running.status == "running")
            doomed = svc.submit(JobSpec(**SMALL, deadline_s=0.05))
            time.sleep(0.15)  # budget burns while queued
            gate.set()
            assert svc.wait_all(timeout=30.0)
            assert doomed.status == "shed"
            assert doomed.shed_reason == "deadline"
        finally:
            gate.set()
            svc.shutdown()

    def test_expiring_mid_solve_fails_at_a_chunk_boundary(self, spool):
        def slow_chunk(case, kwargs):
            time.sleep(0.08)
            return FakeResult(status="maxiter", iterations=kwargs["maxiter"])

        with make_service(spool, workers=1) as svc:
            svc._ctx.solver_factory = scripted_factory(slow_chunk)
            rec = svc.submit(JobSpec(**SMALL, deadline_s=0.2))
            svc.wait(rec.job_id, timeout=30.0)
        assert rec.status == "failed"
        assert rec.updates[-1].detail["reason"] == "deadline"
        assert "deadline" in rec.error
        assert rec.iterations > 0  # it did make progress first


# -- drain / resume -----------------------------------------------------------

def drain_in_background(svc):
    out = {}

    def run():
        out["manifest"] = svc.drain(timeout=30.0)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t, out


class TestDrain:
    def test_queued_jobs_shed_running_job_finishes(self, spool):
        gate = threading.Event()
        svc = make_service(spool, workers=1, gate=gate).start()
        running = svc.submit(JobSpec(**SMALL))
        assert wait_until(lambda: running.status == "running")
        queued = [svc.submit(JobSpec(**SMALL)) for _ in range(2)]

        t, out = drain_in_background(svc)
        assert wait_until(
            lambda: all(q.status == "shed" for q in queued)
        )
        gate.set()  # running job's chunk completes -> converged
        t.join(timeout=30.0)

        manifest = out["manifest"]
        assert manifest["schema"] == DRAIN_SCHEMA
        assert running.status == "converged"
        drained_ids = {j["job_id"] for j in manifest["jobs"]}
        assert drained_ids == {q.job_id for q in queued}
        for entry in manifest["jobs"]:
            assert entry["status"] == "shed"
            assert entry["shed_reason"] == "drained"
        # the service refuses work after drain, typed
        with pytest.raises(ServiceShutdown):
            svc.submit(JobSpec(**SMALL))

    def test_running_job_checkpoints_and_resumes_elsewhere(self, spool, tmp_path):
        gate = threading.Event()

        def chunk_with_checkpoint(case, kwargs):
            assert gate.wait(timeout=30.0), "test gate never opened"
            mgr = CheckpointManager(kwargs["checkpoint_dir"], prefix="solve")
            mgr.save(1, {"x": np.zeros(3)})
            return FakeResult(status="maxiter", iterations=kwargs["maxiter"])

        svc = make_service(spool, workers=1)
        svc._ctx.solver_factory = scripted_factory(chunk_with_checkpoint)
        svc.start()
        rec = svc.submit(JobSpec(**SMALL, deadline_s=None))
        assert wait_until(lambda: rec.status == "running")

        t, out = drain_in_background(svc)
        assert wait_until(lambda: svc._draining.is_set())
        gate.set()  # chunk ends; the boundary check sees the drain
        t.join(timeout=30.0)

        assert rec.status == "shed" and rec.shed_reason == "drained"
        assert rec.resumable
        (entry,) = out["manifest"]["jobs"]
        assert entry["resumable"] and entry["checkpoint_dir"]

        # a successor process picks the manifest up and restores
        seen = []

        def record_restore(case, kwargs):
            seen.append(kwargs)
            return FakeResult()

        svc2 = SolveService(ServiceConfig(
            workers=1, spool_dir=str(tmp_path / "spool2")))
        svc2._ctx.solver_factory = scripted_factory(record_restore)
        with svc2:
            (resumed,) = svc2.resume(out["manifest"])
            assert resumed.resumed
            assert resumed.checkpoint_dir == entry["checkpoint_dir"]
            svc2.wait(resumed.job_id, timeout=30.0)
        assert resumed.status == "converged"
        assert seen[0]["restore"] is True  # first chunk restored the snapshot

    def test_resume_rejects_foreign_manifests(self, spool):
        with make_service(spool) as svc:
            with pytest.raises(ValueError, match="manifest"):
                svc.resume({"schema": "something.else", "jobs": []})
