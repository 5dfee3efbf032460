"""SolveService end to end: admission, breakers, deadlines, drain, resume.

Deterministic tests script the chunks through the ``svc._ctx.run_chunk`` seam
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
from repro.service.runner import Chunk

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


def scripted(fn):
    """A ``run_chunk`` seam whose chunk is ``fn(kwargs)``'s solver result."""
    def run_chunk(record, kwargs, timeout):
        return Chunk.of(fn(kwargs))

    return run_chunk


def gated(gate, calls=None):
    """Blocks every chunk on ``gate``; converges once it opens."""
    def fn(kwargs):
        if calls is not None:
            calls.append(kwargs)
        assert gate.wait(timeout=30.0), "test gate never opened"
        return FakeResult(precond=kwargs["precond"])

    return scripted(fn)


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
        svc._ctx.run_chunk = gated(gate, calls)
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

    def test_every_job_gets_its_own_spool_directory(self, spool):
        gate = threading.Event()
        calls = []
        with make_service(spool, gate=gate, calls=calls) as svc:
            gate.set()
            recs = [svc.submit(JobSpec(**SMALL, seed=i)) for i in range(2)]
            assert svc.wait_all(timeout=30.0)
        assert [r.checkpoint_dir for r in recs] == [
            str(svc.spool_dir / r.job_id) for r in recs]
        assert [c["checkpoint_dir"] for c in calls] == [
            r.checkpoint_dir for r in recs]
        assert all(c["maxiter"] == 100 for c in calls)  # one chunk's worth

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
        def explode(kwargs):
            raise RuntimeError("kaboom")

        with make_service(spool, workers=1) as svc:
            svc._ctx.run_chunk = scripted(explode)
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

        def fn(kwargs):
            calls.append(kwargs["precond"])
            return FakeResult(precond=kwargs["precond"])

        with make_service(spool, workers=1) as svc:
            svc._ctx.run_chunk = scripted(fn)
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
        def slow_chunk(kwargs):
            time.sleep(0.08)
            return FakeResult(status="maxiter", iterations=kwargs["maxiter"])

        with make_service(spool, workers=1) as svc:
            svc._ctx.run_chunk = scripted(slow_chunk)
            rec = svc.submit(JobSpec(**SMALL, deadline_s=0.2))
            svc.wait(rec.job_id, timeout=30.0)
        assert rec.status == "failed"
        assert rec.updates[-1].detail["reason"] == "deadline"
        assert "deadline" in rec.error
        assert rec.iterations > 0  # it did make progress first


# -- chunks and job-level retries ---------------------------------------------

class FaultedResult(FakeResult):
    """Every attempt raised: no outcome, the last attempt names the fault."""

    def __init__(self, fault="message-timeout"):
        super().__init__(status="breakdown", outcome=None, iterations=0)
        self.attempts[0].fault = fault


class TestChunks:
    def test_chunks_split_the_budget_and_restore_after_the_first(self, spool):
        calls = []

        def chunk(kwargs):
            calls.append(kwargs)
            return FakeResult(status="maxiter", iterations=kwargs["maxiter"])

        with make_service(spool, workers=1) as svc:
            svc._ctx.run_chunk = scripted(chunk)
            rec = svc.submit(JobSpec(**SMALL, maxiter=250))
            svc.wait(rec.job_id, timeout=30.0)
        assert [c["maxiter"] for c in calls] == [100, 100, 50]
        assert [c["restore"] for c in calls] == [False, True, True]
        assert {c["checkpoint_dir"] for c in calls} == {rec.checkpoint_dir}
        assert rec.status == "failed" and rec.iterations == 250
        assert rec.updates[-1].detail == {"reason": "maxiter"}

    def test_all_attempts_raising_retries_once_then_fails_typed(self, spool):
        calls = []

        def faulted(kwargs):
            calls.append(kwargs)
            return FaultedResult()

        with make_service(spool, workers=1) as svc:
            svc._ctx.run_chunk = scripted(faulted)
            rec = svc.submit(JobSpec(**SMALL))
            svc.wait(rec.job_id, timeout=30.0)
        assert len(calls) == 2  # the chunk, then one job-level retry
        assert [c["restore"] for c in calls] == [False, False]  # no snapshot
        assert rec.status == "failed" and rec.error == "message-timeout"

    def test_retry_after_a_checkpointed_chunk_restores(self, spool):
        calls = []

        def script(kwargs):
            calls.append(kwargs)
            if len(calls) == 1:
                CheckpointManager(kwargs["checkpoint_dir"], prefix="solve") \
                    .save(20, {"x": np.zeros(3)})
                return FakeResult(status="maxiter", iterations=20)
            if len(calls) == 2:
                return FaultedResult()
            return FakeResult()

        with make_service(spool, workers=1) as svc:
            svc._ctx.run_chunk = scripted(script)
            rec = svc.submit(JobSpec(**SMALL))
            svc.wait(rec.job_id, timeout=30.0)
        assert [c["restore"] for c in calls] == [False, True, True]
        assert rec.status == "converged"


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
        gate, calls = threading.Event(), []
        svc = make_service(spool, workers=1, gate=gate, calls=calls).start()
        running = svc.submit(JobSpec(**SMALL))
        # in its chunk, not just "running": a drain that lands before the
        # first chunk sheds the job before any work
        assert wait_until(lambda: calls)
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
        gate, entered = threading.Event(), threading.Event()

        def chunk_with_checkpoint(kwargs):
            entered.set()
            assert gate.wait(timeout=30.0), "test gate never opened"
            mgr = CheckpointManager(kwargs["checkpoint_dir"], prefix="solve")
            mgr.save(1, {"x": np.zeros(3)})
            return FakeResult(status="maxiter", iterations=kwargs["maxiter"])

        svc = make_service(spool, workers=1)
        svc._ctx.run_chunk = scripted(chunk_with_checkpoint)
        svc.start()
        rec = svc.submit(JobSpec(**SMALL, deadline_s=None))
        assert entered.wait(timeout=30.0)  # in its chunk

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

        def record_restore(kwargs):
            seen.append(kwargs)
            return FakeResult()

        svc2 = SolveService(ServiceConfig(
            workers=1, spool_dir=str(tmp_path / "spool2")))
        svc2._ctx.run_chunk = scripted(record_restore)
        with svc2:
            (resumed,) = svc2.resume(out["manifest"])
            assert resumed.resumed
            assert resumed.checkpoint_dir == entry["checkpoint_dir"]
            svc2.wait(resumed.job_id, timeout=30.0)
        assert resumed.status == "converged"
        assert seen[0]["restore"] is True  # first chunk restored the snapshot

    def test_manifest_written_with_solver_fields_resumes_to_terminal(
            self, spool, tmp_path):
        # a drain manifest from when JobSpec had a ``solver`` field: one job
        # shed mid-solve with a checkpoint, one shed from the queue
        from repro import CASE_BUILDERS, solve_case

        ckpt_dir = tmp_path / "old-spool" / "job-00000"
        part = solve_case(CASE_BUILDERS["tc1"](13), "schur1", nparts=2,
                          maxiter=2, restart=1, checkpoint_dir=str(ckpt_dir))
        assert part.status == "maxiter"
        spec = {**JobSpec(**SMALL).to_dict(), "solver": "fgmres"}
        manifest = {"schema": DRAIN_SCHEMA, "jobs": [
            {"job_id": "job-00000", "spec": spec, "status": "shed",
             "shed_reason": "drained", "resumable": True,
             "checkpoint_dir": str(ckpt_dir), "iterations_done": 2},
            {"job_id": "job-00001", "spec": dict(spec, seed=1),
             "status": "shed", "shed_reason": "drained", "resumable": False,
             "checkpoint_dir": None, "iterations_done": 0},
        ]}
        with make_service(spool, workers=2) as svc:
            records = svc.resume(manifest)
            assert svc.wait_all(timeout=60.0)
        assert [r.resumed for r in records] == [True, False]
        assert all(r.status == "converged" for r in records)

    def test_resume_rejects_foreign_manifests(self, spool):
        with make_service(spool) as svc:
            with pytest.raises(ValueError, match="manifest"):
                svc.resume({"schema": "something.else", "jobs": []})
