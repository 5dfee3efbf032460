"""Process-level fault kinds: real signals on real backends, graceful
degradation to simulated rank-death everywhere else."""

import os
import signal

import pytest

from repro import faults
from repro.cases import poisson2d_case
from repro.comm.backends import InProcessBackend, MultiprocessBackend
from repro.comm.backends import supervisor
from repro.comm.communicator import RetryPolicy
from repro.faults import FaultPlan, FaultSpec
from repro.resilience import ResilientSolver
from repro.resilience.errors import MessageTimeout
from tests.conftest import command_round


@pytest.fixture(scope="module")
def case():
    return poisson2d_case(12)


class TestSpecValidation:
    @pytest.mark.parametrize("kind", ["proc-kill", "proc-hang"])
    def test_proc_kinds_require_a_rank(self, kind):
        with pytest.raises(ValueError, match="explicit rank"):
            FaultSpec(kind)
        assert FaultSpec(kind, rank=1).rank == 1

    def test_underscore_alias(self):
        assert FaultSpec("proc_kill", rank=0).kind == "proc-kill"


class TestDegradedInProcess:
    """Without real processes the proc kinds play dead, so the same fault
    plan exercises recovery on every backend."""

    @pytest.mark.parametrize("kind", ["proc-kill", "proc-hang"])
    def test_degrades_to_simulated_rank_death(self, kind):
        plan = FaultPlan(FaultSpec(kind, rank=1))
        plan.exchange_begin(backend=InProcessBackend(3))
        assert plan.dead_ranks == {1}
        (rec,) = plan.injected
        assert rec["kind"] == kind
        assert rec["degraded"] is True

    def test_no_backend_also_degrades(self):
        plan = FaultPlan(FaultSpec("proc-kill", rank=0))
        plan.exchange_begin()
        assert plan.dead_ranks == {0}
        assert plan.injected[0]["degraded"] is True

    def test_degraded_solve_recovers(self, case):
        plan = FaultPlan(FaultSpec("proc-kill", rank=2, start=4))
        with faults.inject(plan):
            res = ResilientSolver().solve(case, precond="schur1", nparts=3)
        assert res.recovered
        assert [a.kind for a in res.attempts] == ["primary", "rank-recovery"]


class TestRealBackend:
    @pytest.fixture(autouse=True)
    def _fence_after_two(self, monkeypatch):
        monkeypatch.setattr(supervisor, "FENCE_AFTER", 2)

    def _backend(self):
        return MultiprocessBackend(3)

    def test_proc_kill_sends_a_real_sigkill(self):
        backend = self._backend()
        try:
            backend.ensure_started()
            pid = backend.rank_pid(1)
            plan = FaultPlan(FaultSpec("proc-kill", rank=1))
            plan.exchange_begin(backend=backend)
            # the process is genuinely gone, not simulated dead
            assert plan.dead_ranks == set()
            assert plan.injected[0]["degraded"] is False
            backend._procs[1].join(5.0)
            assert backend._procs[1].exitcode == -9
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        finally:
            backend.shutdown()

    def test_proc_hang_sigstops_until_resumed(self):
        backend = self._backend()
        try:
            backend.ensure_started()
            plan = FaultPlan(FaultSpec("proc-hang", rank=2))
            plan.exchange_begin(backend=backend)
            # stopped: the round times out, one miss...
            fault = command_round(backend, [2], RetryPolicy(0, 0.15))
            assert isinstance(fault, MessageTimeout)
            assert backend.check_alive(2)               # ...but not dead
            os.kill(backend.rank_pid(2), signal.SIGCONT)
            assert command_round(backend, [2]) is None
        finally:
            backend.shutdown()

    def test_spec_fires_once_per_plan(self):
        backend = self._backend()
        try:
            backend.ensure_started()
            plan = FaultPlan(FaultSpec("proc-kill", rank=0))
            plan.exchange_begin(backend=backend)
            plan.exchange_begin(backend=backend)
            assert len(plan.injected) == 1
        finally:
            backend.shutdown()
