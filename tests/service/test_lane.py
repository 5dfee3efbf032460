"""The compute lane: in-process chunks one at a time, everything else overlaps.

Scripted solvers throughout, every service gets a lane of its own (the
process-wide one is shared with every other test), and nothing here asserts
on a duration: the gate and the fake clock make the orders deterministic.
"""

import sys
import threading

import pytest

from repro.factor.cache import FactorCache
from repro.resilience import ResilientSolver
from repro.service import JobSpec, ServiceConfig, SolveService
from repro.service.breaker import BreakerBoard
from repro.service.deadline import IterationRateEstimator
from repro.service.job import _TRANSITIONS, JOB_STATUSES, JobRecord
from repro.service.lane import PROCESS_LANE, ComputeLane
from repro.service.runner import CaseCache, RunnerContext, run_job
from tests.service.test_service import (
    SMALL,
    FakeResult,
    gate_factory,
    scripted_factory,
    wait_until,
)

MP = dict(SMALL, backend="multiprocess")


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def lane_service(tmp_path, workers, factory, clock=None):
    kw = {} if clock is None else {"clock": clock}
    svc = SolveService(ServiceConfig(
        workers=workers, spool_dir=str(tmp_path / "spool"), poll_s=0.01,
    ), **kw)
    svc._ctx.lane = ComputeLane()
    svc._ctx.solver_factory = factory
    return svc


def one_holds_one_waits(svc, gate_calls, **second):
    """Job A computing behind the gate, job B ``running`` in the lane's line."""
    a = svc.submit(JobSpec(**SMALL))
    assert wait_until(lambda: len(gate_calls) == 1)
    b = svc.submit(JobSpec(**SMALL, **second))
    assert wait_until(lambda: len(svc._ctx.lane._line) == 1)
    assert b.status == "running"   # waiting for the lane is running
    assert [u.status for u in b.updates] == ["queued", "running"]
    return a, b


# -- the lane itself ----------------------------------------------------------

class TestComputeLane:
    def test_waiters_are_served_in_arrival_order(self):
        lane, order, threads = ComputeLane(), [], []
        assert lane.acquire(0.01, lambda: False)[0]

        def waiter(i):
            held, _ = lane.acquire(0.01, lambda: False)
            assert held
            order.append(i)
            lane.release()

        for i in range(5):
            threads.append(threading.Thread(target=waiter, args=(i,)))
            threads[-1].start()
            assert wait_until(lambda: len(lane._line) == i + 1)
        lane.release()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        assert order == [0, 1, 2, 3, 4]
        assert lane.stats()["acquisitions"] == 6
        assert lane.stats()["waited"] == 5

    def test_a_head_that_gives_up_lets_the_next_one_in(self):
        lane, quit_first, got = ComputeLane(), threading.Event(), []
        assert lane.acquire(0.01, lambda: False)[0]
        first = threading.Thread(
            target=lambda: got.append(lane.acquire(0.01, quit_first.is_set)[0]))
        first.start()
        assert wait_until(lambda: len(lane._line) == 1)
        second = threading.Thread(
            target=lambda: got.append(lane.acquire(0.01, lambda: False)[0]))
        second.start()
        assert wait_until(lambda: len(lane._line) == 2)
        quit_first.set()
        first.join(timeout=10.0)
        lane.release()
        second.join(timeout=10.0)
        assert not first.is_alive() and not second.is_alive()
        assert got == [False, True]
        assert lane.stats()["acquisitions"] == 2

    def test_give_up_that_raises_leaves_no_ticket_behind(self):
        lane = ComputeLane()

        def boom():
            raise RuntimeError("clock fell over")

        with pytest.raises(RuntimeError):
            lane.acquire(0.01, boom)
        assert not lane._line
        assert lane.acquire(0.01, lambda: False)[0]

    def test_stress_no_lost_update_under_the_lane(self):
        # more threads than cores, a short switch interval, and a
        # read-yield-write that loses updates the moment two holders overlap
        lane, box, rounds, n = ComputeLane(), {"v": 0}, 150, 8
        yield_ = threading.Event()

        def worker():
            for _ in range(rounds):
                held, _w = lane.acquire(0.005, lambda: False)
                assert held
                v = box["v"]
                yield_.wait(timeout=0)   # invites a thread switch
                box["v"] = v + 1
                lane.release()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert box["v"] == n * rounds
        assert lane.stats()["acquisitions"] == n * rounds


# -- who takes it --------------------------------------------------------------

class TestWhoTakesTheLane:
    def test_never_more_than_one_inprocess_chunk_in_flight(self, tmp_path):
        flight = {"now": 0, "peak": 0}
        guard, pause = threading.Lock(), threading.Event()

        def fn(case, kwargs):
            with guard:
                flight["now"] += 1
                flight["peak"] = max(flight["peak"], flight["now"])
            pause.wait(timeout=0.002)   # room for a second chunk to start
            with guard:
                flight["now"] -= 1
            return FakeResult(precond=kwargs["precond"])

        with lane_service(tmp_path, 4, scripted_factory(fn)) as svc:
            for i in range(12):
                svc.submit(JobSpec(**SMALL, seed=i % 4))
            assert svc.wait_all(timeout=60.0)
            stats = svc.stats()
        assert stats["by_status"] == {"converged": 12}
        assert flight["peak"] == 1
        assert stats["lane"]["acquisitions"] == 12

    def test_services_of_one_process_share_one_lane(self, tmp_path):
        one = SolveService(ServiceConfig(spool_dir=str(tmp_path / "a")))
        two = SolveService(ServiceConfig(spool_dir=str(tmp_path / "b")))
        assert one._ctx.lane is two._ctx.lane is PROCESS_LANE

    @pytest.mark.parametrize("how", ["spec", "env"])
    def test_multiprocess_jobs_are_in_flight_together(
        self, tmp_path, monkeypatch, how
    ):
        # where the arithmetic runs is what solve_case would resolve: the
        # spec's backend, else REPRO_COMM_BACKEND
        fields = MP if how == "spec" else SMALL
        if how == "env":
            monkeypatch.setenv("REPRO_COMM_BACKEND", "multiprocess")
        gate, calls = threading.Event(), []
        with lane_service(tmp_path, 2, gate_factory(gate, calls)) as svc:
            recs = [svc.submit(JobSpec(**fields, seed=i)) for i in range(2)]
            assert wait_until(lambda: len(calls) == 2)   # both, gate shut
            gate.set()
            assert svc.wait_all(timeout=30.0)
            assert svc.stats()["lane"]["acquisitions"] == 0
        assert [r.status for r in recs] == ["converged"] * 2
        assert [r.lane_wait_s for r in recs] == [0.0, 0.0]

    def test_real_solve_reads_the_factor_cache_under_the_lane(
        self, tmp_path, monkeypatch
    ):
        # the one order edge the lane has at run time: lane -> factor cache
        # (RPR012 cannot follow a hold that is not a `with`; this does)
        seen = []
        real_get = FactorCache.get

        def spy(self, key, alg):
            seen.append(lane._since is not None)
            return real_get(self, key, alg)

        monkeypatch.setattr(FactorCache, "get", spy)
        svc = lane_service(tmp_path, 2, ResilientSolver)
        lane = svc._ctx.lane
        with svc:
            rec = svc.submit(JobSpec(**SMALL))
            assert svc.wait(rec.job_id, timeout=60.0).status == "converged"
        assert seen and all(seen)
        assert lane._since is None


# -- signals reach a waiter ------------------------------------------------------

class TestSignalsWhileWaiting:
    def test_drain_while_waiting_sheds_and_computes_nothing(self, tmp_path):
        gate, calls = threading.Event(), []
        svc = lane_service(tmp_path, 2, gate_factory(gate, calls)).start()
        a, b = one_holds_one_waits(svc, calls)
        drainer = threading.Thread(target=svc.drain, kwargs={"timeout": 30.0})
        drainer.start()
        assert b.wait(timeout=10.0)          # while A still holds the lane
        assert (b.status, b.shed_reason) == ("shed", "drained")
        assert len(calls) == 1 and b.attempts == [] and not b.resumable
        assert b.lane_wait_s > 0
        gate.set()
        drainer.join(timeout=30.0)
        assert not drainer.is_alive()
        assert a.status == "converged"       # the holder finished its chunk
        svc.shutdown()

    def test_cancel_while_waiting_cancels_and_computes_nothing(self, tmp_path):
        gate, calls = threading.Event(), []
        with lane_service(tmp_path, 2, gate_factory(gate, calls)) as svc:
            a, b = one_holds_one_waits(svc, calls)
            svc.cancel(b.job_id)
            assert b.wait(timeout=10.0)
            assert b.status == "cancelled" and len(calls) == 1
            gate.set()
            assert a.wait(timeout=10.0) and a.status == "converged"

    def test_deadline_expiring_while_waiting_fails_typed(self, tmp_path):
        gate, calls, clock = threading.Event(), [], FakeClock()
        with lane_service(tmp_path, 2, gate_factory(gate, calls),
                          clock=clock) as svc:
            a, b = one_holds_one_waits(svc, calls, deadline_s=5.0)
            clock.advance(10.0)
            # (record.wait counts its timeout on the frozen service clock)
            assert wait_until(lambda: b.terminal)
            assert b.status == "failed"
            assert b.updates[-1].detail == {"reason": "deadline"}
            assert len(calls) == 1
            gate.set()
            assert wait_until(lambda: a.terminal)

    def test_a_solve_that_raises_releases_the_lane(self, tmp_path):
        def fn(case, kwargs):
            if kwargs["seed"] == 0:
                raise RuntimeError("solver fell over")
            return FakeResult(precond=kwargs["precond"])

        with lane_service(tmp_path, 2, scripted_factory(fn)) as svc:
            bad = svc.submit(JobSpec(**SMALL, seed=0))
            assert bad.wait(timeout=10.0)
            good = svc.submit(JobSpec(**SMALL, seed=1))
            assert good.wait(timeout=10.0)
            assert svc._ctx.lane._since is None
        assert bad.status == "failed" and "RuntimeError" in bad.error
        assert good.status == "converged"


# -- what the clocks are told ----------------------------------------------------

class TestClocks:
    def test_rate_estimator_learns_the_compute_wall_only(self, tmp_path):
        clock = FakeClock()

        class SlowLane(ComputeLane):
            def acquire(self, poll_s, give_up):
                held, _ = super().acquire(poll_s, give_up)
                clock.advance(7.0)        # a convoy's worth of waiting
                return held, 7.0

        def fn(case, kwargs):
            clock.advance(2.0)            # the chunk itself: 10 iterations
            return FakeResult(precond=kwargs["precond"], iterations=10)

        ctx = RunnerContext(
            breakers=BreakerBoard(), rates=IterationRateEstimator(),
            cases=CaseCache(), draining=threading.Event(), clock=clock,
            solver_factory=scripted_factory(fn),
            lane=SlowLane(),
        )
        record = JobRecord("job-0", JobSpec(**SMALL), clock=clock,
                           checkpoint_dir=str(tmp_path / "job-0"))
        run_job(record, ctx)
        assert record.status == "converged"
        spec = record.spec
        key = (spec.case, spec.size, spec.precond, spec.nparts)
        assert ctx.rates.estimate(key) == pytest.approx(0.2)   # not 0.9
        progress = [u for u in record.updates if u.kind == "progress"][-1]
        assert progress.detail["wall_s"] == pytest.approx(2.0)
        assert record.lane_wait_s == 7.0

    def test_lane_wait_is_counted_on_the_record_and_in_its_stream(self, tmp_path):
        gate, calls = threading.Event(), []
        with lane_service(tmp_path, 2, gate_factory(gate, calls)) as svc:
            a, b = one_holds_one_waits(svc, calls)
            gate.set()
            assert svc.wait_all(timeout=10.0)
            lane = svc.stats()["lane"]
        assert a.status == b.status == "converged" and b.lane_wait_s > 0
        assert b.to_dict()["lane_wait_s"] == b.lane_wait_s
        progress = [u for u in b.updates if u.kind == "progress"][-1]
        assert progress.detail["lane_wait_s"] == b.lane_wait_s
        assert lane["acquisitions"] == 2 and lane["waited"] == 1
        assert lane["wait_s"] >= b.lane_wait_s and lane["held_s"] > 0


# -- the job-record machine is the parent's ---------------------------------------

def test_job_record_machine_is_unchanged():
    assert JOB_STATUSES == (
        "queued", "running", "converged", "failed", "shed", "cancelled")
    assert _TRANSITIONS == {   # no "waiting" state was added
        "queued": ("running", "shed", "cancelled"),
        "running": ("converged", "failed", "shed", "cancelled"),
    }
