"""Service workers as supervised processes.

Every in-process chunk computes in the worker thread's own process; the
parent admits, routes and keeps the records.  Real solves where the
process boundary is the point (bits, death, fault lending), the scripted
``run_chunk`` seam where only the thread's view matters.
"""

import dataclasses
import importlib
import json
import os
import signal
import threading

import numpy as np
import pytest

from repro import faults
from repro.cases import build_case
from repro.checkpoint import CheckpointManager
from repro.comm.backends import make_backend
from repro.comm.communicator import RetryPolicy
from repro.resilience import ResilientSolver
from repro.service import JobSpec, ServiceConfig, SolveService
from repro.service import runner
from repro.service import service as service_module
from repro.service.breaker import BreakerBoard
from repro.service.deadline import IterationRateEstimator
from repro.service.job import _TRANSITIONS, JOB_STATUSES, TERMINAL_STATUSES, JobRecord
from repro.service.runner import CaseCache, Chunk, RunnerContext, run_job
from tests.service.test_service import SMALL, FakeResult, gated, scripted, wait_until

#: three 100-iteration chunks and a short one (219 iterations in all)
LONG = dict(case="tc1", size=33, nparts=2, precond="jacobi", rtol=1e-8)
#: ten chunks, long enough to kill a worker in the middle of one
LONGER = dict(case="tc1", size=81, nparts=2, precond="jacobi", rtol=1e-8,
              maxiter=3000)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture(autouse=True)
def _quick_poll(monkeypatch):
    monkeypatch.setattr(service_module, "POLL_S", 0.01)


def service(tmp_path, workers=2, **kw):
    return SolveService(ServiceConfig(
        workers=workers, spool_dir=str(tmp_path / "spool"),
    ), **kw)


def worker_stats(svc, name):
    (stats,) = [w for w in svc.stats()["workers"] if w["worker"] == name]
    return stats


# -- where chunks compute ---------------------------------------------------------

class TestWorkerProcesses:
    def test_start_forks_one_supervised_process_per_worker(self, tmp_path):
        svc = service(tmp_path, workers=3)
        assert [w["pid"] for w in svc.stats()["workers"]] == [None] * 3
        with svc:
            workers = svc.stats()["workers"]
        assert [w["worker"] for w in workers] == ["worker-0", "worker-1", "worker-2"]
        pids = [w["pid"] for w in workers]
        assert len(set(pids)) == 3 and os.getpid() not in pids
        assert {w["state"] for w in workers} == {"ready"}

    def test_in_process_chunks_compute_in_the_worker_process(
        self, tmp_path, monkeypatch
    ):
        with service(tmp_path, workers=1) as svc:
            # patched after the fork: only this process would call it
            monkeypatch.setattr(runner, "solve_chunk", None)
            rec = svc.submit(JobSpec(**SMALL))
            assert svc.wait(rec.job_id, timeout=60.0).status == "converged"
            stats = worker_stats(svc, "worker-0")
        assert stats["chunks"] == 1 and stats["maxrss_kb"] > 0
        assert rec.final_relres <= rec.spec.rtol * 10

    def test_multiprocess_jobs_stay_in_the_thread(self, tmp_path, monkeypatch):
        # their rank processes compute: the thread drives them itself
        seen = []

        def here(case, kwargs):
            seen.append(threading.current_thread().name)
            return Chunk.of(FakeResult(precond=kwargs["precond"]))

        with service(tmp_path) as svc:
            monkeypatch.setattr(runner, "solve_chunk", here)
            rec = svc.submit(JobSpec(**SMALL, backend="multiprocess"))
            assert svc.wait(rec.job_id, timeout=30.0).status == "converged"
            workers = svc.stats()["workers"]
        assert len(seen) == 1 and seen[0].startswith("repro-service-worker-")
        assert [w["chunks"] for w in workers] == [0, 0]

    @pytest.mark.parametrize("backend", ["inprocess", "multiprocess"])
    def test_a_job_starts_from_its_backends_retry_policy(self, tmp_path, backend):
        # without a deadline nothing scales it: the chunk gets the policy a
        # communicator on that backend adopts
        calls = []

        def record(kwargs):
            calls.append(kwargs)
            return FakeResult(precond=kwargs["precond"])

        with service(tmp_path) as svc:
            svc._ctx.run_chunk = scripted(record)
            rec = svc.submit(JobSpec(**SMALL, backend=backend))
            assert svc.wait(rec.job_id, timeout=30.0).status == "converged"
        want = make_backend(backend, 1).default_retry_policy()
        assert [c["retry_policy"] for c in calls] == [want]

    def test_two_chunks_compute_at_once(self, tmp_path):
        gate, calls = threading.Event(), []
        with service(tmp_path) as svc:
            svc._ctx.run_chunk = gated(gate, calls)
            recs = [svc.submit(JobSpec(**SMALL, seed=i)) for i in range(2)]
            assert wait_until(lambda: len(calls) == 2)   # both, gate shut
            gate.set()
            assert svc.wait_all(timeout=30.0)
        assert [r.status for r in recs] == ["converged"] * 2
        assert {r.worker for r in recs} == {"worker-0", "worker-1"}

    def test_the_lane_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.service.lane")
        assert "lane_wait_s" not in JobRecord("job-0", JobSpec()).to_dict()
        names = {f.name for f in dataclasses.fields(RunnerContext)}
        assert not names & {"lane", "poll_s", "solver_factory"}

    def test_stats_report_each_worker(self, tmp_path):
        with service(tmp_path, workers=2) as svc:
            recs = [svc.submit(JobSpec(**SMALL, seed=i)) for i in range(4)]
            assert svc.wait_all(timeout=60.0)
            stats = svc.stats()
        assert "lane" not in stats
        assert [sorted(w) for w in stats["workers"]] == [[
            "chunks", "maxrss_kb", "pid", "respawns", "state", "worker",
        ]] * 2
        assert sum(w["chunks"] for w in stats["workers"]) == len(recs)
        assert all(w["respawns"] == 0 for w in stats["workers"])


# -- same bits as a solve in this thread -------------------------------------------

class TestSameBits:
    def test_service_job_equals_an_in_thread_chunked_solve(self, tmp_path):
        spec = JobSpec(**LONG)
        with service(tmp_path, workers=1) as svc:
            rec = svc.submit(spec)
            assert svc.wait(rec.job_id, timeout=120.0).status == "converged"
        case, done, residuals, restore = build_case("tc1", 33), 0, [], False
        while True:
            res = ResilientSolver().solve(
                case, precond=spec.precond, nparts=spec.nparts, seed=spec.seed,
                scheme=spec.scheme, rtol=spec.rtol,
                maxiter=min(runner.CHUNK_ITERS, spec.maxiter - done),
                backend=spec.backend, retry_policy=RetryPolicy(),
                checkpoint_dir=str(tmp_path / "here"), checkpoint_every=1,
                restore=restore,
            )
            done += sum(a.iterations for a in res.attempts)
            residuals += res.outcome.residuals
            if res.converged:
                break
            restore = True
        assert len(rec.updates) > 4            # it really ran in chunks
        assert rec.iterations == done
        assert rec.residuals == [float(r) for r in residuals]
        assert rec.final_relres == runner._relative_residual(
            case, res.outcome.x_global)


# -- a worker that dies --------------------------------------------------------------

def kill_mid_chunk(svc, victim, signum):
    """Signal the victim's worker once its first chunk is done; its pid."""
    assert wait_until(lambda: victim.iterations >= runner.CHUNK_ITERS,
                      timeout=60.0)
    pid = worker_stats(svc, victim.worker)["pid"]
    os.kill(pid, signum)
    return pid


def assert_recovered(svc, victim, bystanders, pid):
    assert svc.wait_all(timeout=120.0)
    assert {r.status for r in bystanders} <= set(TERMINAL_STATUSES)
    assert victim.status == "converged", (victim.error, victim.attempts)
    assert victim.final_relres <= victim.spec.rtol * 10
    (died,) = [a for a in victim.attempts if a["kind"] == "worker"]
    assert died["fault"].startswith(f"{victim.worker}: rank")
    stats = worker_stats(svc, victim.worker)
    assert stats["respawns"] == 1 and stats["pid"] != pid
    assert stats["state"] == "ready"


class TestWorkerDeath:
    def test_a_worker_dead_between_jobs_costs_one_retry(self, tmp_path):
        with service(tmp_path, workers=1) as svc:
            pid = worker_stats(svc, "worker-0")["pid"]
            os.kill(pid, signal.SIGKILL)
            rec = svc.submit(JobSpec(**SMALL))
            assert_recovered(svc, rec, [], pid)
        assert [a["kind"] for a in rec.attempts] == ["worker", "primary"]

    def test_proc_kill_mid_chunk_respawns_and_the_job_converges(self, tmp_path):
        with service(tmp_path) as svc:
            victim = svc.submit(JobSpec(**LONGER))
            others = [svc.submit(JobSpec(**SMALL, seed=i)) for i in range(3)]
            pid = kill_mid_chunk(svc, victim, signal.SIGKILL)
            assert_recovered(svc, victim, others, pid)

    def test_sigstop_mid_chunk_is_fenced_and_the_job_converges(
        self, tmp_path, monkeypatch
    ):
        # no heartbeat can tell a hung worker from a busy one: the chunk
        # timeout does, and fences it
        monkeypatch.setattr(runner, "CHUNK_TIMEOUT_S", 3.0)
        with service(tmp_path) as svc:
            victim = svc.submit(JobSpec(**LONGER))
            others = [svc.submit(JobSpec(**SMALL, seed=i)) for i in range(3)]
            pid = kill_mid_chunk(svc, victim, signal.SIGSTOP)
            assert_recovered(svc, victim, others, pid)
        (died,) = [a for a in victim.attempts if a["kind"] == "worker"]
        assert "fenced" in died["fault"]

    def test_a_worker_lost_to_a_drain_is_not_respawned(self, tmp_path):
        # the drain gives up on a hung chunk and shuts the pool down: the
        # job sheds resumable from its last checkpoint, and no process
        # outlives the service
        svc = service(tmp_path, workers=1).start()
        victim = svc.submit(JobSpec(**LONGER))
        pid = kill_mid_chunk(svc, victim, signal.SIGSTOP)
        manifest = svc.drain(timeout=0.2)
        assert wait_until(lambda: victim.terminal, timeout=30.0)
        svc.shutdown()
        assert (victim.status, victim.shed_reason) == ("shed", "drained")
        assert victim.resumable
        assert [j["job_id"] for j in manifest["jobs"]] == [victim.job_id]
        stats = worker_stats(svc, "worker-0")
        assert stats["respawns"] == 0 and stats["pid"] == pid
        assert stats["state"] == "dead"


class TestDeathAfterConvergence:
    def test_a_worker_killed_after_convergence_converges_on_retry(
        self, tmp_path, monkeypatch
    ):
        """The converged cycle is never snapshotted: a worker that dies
        between convergence and its reply costs a retry from the job's
        last unconverged snapshot (iteration 200 of 219), which converges
        to the relres of a job nobody killed."""
        died = tmp_path / "died"
        solve = runner.solve_chunk

        def solve_then_die(case, kwargs):
            chunk = solve(case, kwargs)
            if chunk.converged and not died.exists():
                died.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return chunk

        # patched before the fork, so the worker processes run it
        monkeypatch.setattr(runner, "solve_chunk", solve_then_die)
        with service(tmp_path, workers=1) as svc:
            victim = svc.submit(JobSpec(**LONG))
            assert svc.wait(victim.job_id, timeout=120.0).status == "converged"
            control = svc.submit(JobSpec(**LONG))
            assert svc.wait(control.job_id, timeout=120.0).status == "converged"
        assert died.exists()
        assert [a["kind"] for a in victim.attempts].count("worker") == 1
        assert [a["kind"] for a in control.attempts] == ["primary"] * 3
        assert victim.final_relres == control.final_relres
        assert victim.iterations == control.iterations == 219
        steps = CheckpointManager(victim.checkpoint_dir, prefix="solve").steps()
        assert steps and max(steps) == 200


# -- fault plans lent to one chunk at a time -------------------------------------------

class TestFaultLending:
    def test_a_loan_round_trips_specs_counters_rng_and_dead_ranks(self):
        plan = faults.FaultPlan([
            faults.FaultSpec("nan-kernel", count=2, target=("schur1",)),
            faults.FaultSpec("rank-dead", rank=1, start=3),
        ], seed=5)
        plan.rng.integers(10)
        loan = json.loads(json.dumps(plan.lend()))   # it crosses a pipe
        away = faults.FaultPlan.borrowed(loan)
        assert away.specs == plan.specs and away.seed == 5
        assert away.rng.integers(1 << 30) == plan.rng.integers(1 << 30)
        with faults.inject(away), faults.scope("schur1"):
            away.exchange_begin()
            away.kernel_output("matvec", np.zeros(4))
        plan.settle(json.loads(json.dumps(away.loan_back())))
        assert plan.summary() == {"nan-kernel": 1}
        assert plan.injected == away.injected
        assert [(s.opportunities, s.fired) for s in plan._states] == [(1, 1), (1, 0)]
        assert plan.rng.bit_generator.state == away.rng.bit_generator.state

    def test_a_plan_is_out_to_one_chunk_at_a_time(self):
        plan = faults.FaultPlan(faults.FaultSpec("straggler"))
        loan = plan.lend()
        assert loan is not None and plan.lend() is None
        plan.settle(faults.FaultPlan.borrowed(loan).loan_back())
        assert plan.lend() is not None

    def test_a_borrower_that_died_settles_nothing(self):
        plan = faults.FaultPlan(faults.FaultSpec("straggler"), seed=3)
        before = plan.rng.bit_generator.state
        plan.lend()
        plan.settle(None)
        assert plan.injected == [] and plan.rng.bit_generator.state == before
        assert plan.lend() is not None

    def test_count_one_fires_once_across_four_workers(self, tmp_path):
        plan = faults.FaultPlan(faults.FaultSpec("nan-kernel", count=1), seed=1)
        with faults.inject(plan), service(tmp_path, workers=4) as svc:
            recs = [svc.submit(JobSpec(**SMALL, seed=i % 4)) for i in range(12)]
            assert svc.wait_all(timeout=120.0)
        assert plan.summary() == {"nan-kernel": 1}
        assert plan.lend() is not None           # every loan came back
        assert all(r.status == "converged" for r in recs)
        faulted = [a for r in recs for a in r.attempts if a["fault"]]
        assert len(faulted) == 1 and "non-finite" in faulted[0]["fault"]


# -- what the parent's clocks and signals see ---------------------------------------------

class TestParentSide:
    def test_rate_estimator_learns_the_chunk_wall(self, tmp_path):
        clock = FakeClock()

        def fn(kwargs):
            clock.advance(2.0)            # the chunk itself: 10 iterations
            return FakeResult(precond=kwargs["precond"], iterations=10)

        ctx = RunnerContext(
            breakers=BreakerBoard(), rates=IterationRateEstimator(),
            cases=CaseCache(), draining=threading.Event(), clock=clock,
        )
        ctx.run_chunk = scripted(fn)
        record = JobRecord("job-0", JobSpec(**SMALL), clock=clock,
                           checkpoint_dir=str(tmp_path / "job-0"))
        run_job(record, ctx)
        assert record.status == "converged"
        spec = record.spec
        key = (spec.case, spec.size, spec.precond, spec.nparts)
        assert ctx.rates.estimate(key) == pytest.approx(0.2)
        progress = [u for u in record.updates if u.kind == "progress"][-1]
        assert progress.detail["wall_s"] == pytest.approx(2.0)
        assert "lane_wait_s" not in progress.detail

    def test_chunk_timeout_is_what_is_left_of_the_deadline(self, tmp_path):
        timeouts = []

        def run_chunk(record, kwargs, timeout):
            timeouts.append(timeout)
            return Chunk.of(FakeResult(precond=kwargs["precond"]))

        with service(tmp_path, clock=FakeClock()) as svc:
            svc._ctx.run_chunk = run_chunk
            for deadline in (None, 5.0):
                rec = svc.submit(JobSpec(**SMALL, deadline_s=deadline))
                assert wait_until(lambda: rec.terminal)
        assert timeouts == [runner.CHUNK_TIMEOUT_S, 5.0]

    def test_job_record_machine_is_unchanged(self):
        assert JOB_STATUSES == (
            "queued", "running", "converged", "failed", "shed", "cancelled")
        assert _TRANSITIONS == {
            "queued": ("running", "shed", "cancelled"),
            "running": ("converged", "failed", "shed", "cancelled"),
        }
