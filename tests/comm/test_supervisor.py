"""Rank-lifecycle state machine: transitions, fencing, classification."""

import pytest

from repro import obs
from repro.comm.backends import multiprocess, supervisor
from repro.comm.backends.supervisor import (
    DEAD,
    READY,
    SPAWNED,
    SUSPECT,
    RankSupervisor,
)
from repro.resilience.errors import MessageTimeout, RankDeadError


def _events(tracer, name):
    evs = [e for e in tracer.orphan_events if e["name"] == name]
    for s in tracer.spans:
        evs.extend(e for e in s.events if e["name"] == name)
    return evs


@pytest.fixture()
def fence_after(monkeypatch):
    """Set the supervisor's miss budget for one test."""
    return lambda n: monkeypatch.setattr(supervisor, "FENCE_AFTER", n)


def test_supervision_constants_are_sane():
    assert supervisor.FENCE_AFTER >= 1 and multiprocess.STARTUP_TIMEOUT > 0


class TestStateMachine:
    def test_initial_state_is_spawned(self):
        sup = RankSupervisor(3)
        assert [sup.state(r) for r in range(3)] == [SPAWNED] * 3

    def test_size_validated(self):
        with pytest.raises(ValueError, match="size"):
            RankSupervisor(0)

    def test_hello_promotes_to_ready(self):
        sup = RankSupervisor(2)
        sup.record_spawn(0, pid=1234)
        sup.record_ready(0)
        assert sup.state(0) == READY
        assert sup.records[0].pid == 1234

    def test_miss_demotes_to_suspect_and_counts(self):
        sup = RankSupervisor(1)
        sup.record_ready(0)
        assert sup.record_miss(0) == SUSPECT
        assert sup.record_miss(0) == SUSPECT
        assert sup.records[0].misses == 2

    def test_probe_reply_recovers_suspect_and_resets_budget(self):
        sup = RankSupervisor(1)
        sup.record_ready(0)
        sup.record_miss(0)
        sup.record_miss(0)
        sup.record_ready(0)
        assert sup.state(0) == READY
        assert sup.records[0].misses == 0

    def test_exit_is_terminal_from_any_state(self):
        for prep in (lambda s: None,
                     lambda s: s.record_ready(0),
                     lambda s: (s.record_ready(0), s.record_miss(0))):
            sup = RankSupervisor(1)
            prep(sup)
            sup.record_exit(0, exitcode=-9)
            assert sup.is_dead(0)
            assert sup.records[0].exitcode == -9
            # late replies from a dead rank are noise, not resurrection
            sup.record_ready(0)
            assert sup.is_dead(0)
            assert sup.record_miss(0) == DEAD

    def test_dead_ranks_enumerates_only_the_dead(self):
        sup = RankSupervisor(4)
        sup.record_exit(1, exitcode=0)
        sup.record_exit(3, exitcode=-9)
        assert sup.dead_ranks() == [1, 3]


class TestFencing:
    def test_fence_only_after_budget_exhausted(self, fence_after):
        fence_after(3)
        sup = RankSupervisor(1)
        sup.record_ready(0)
        sup.record_miss(0)
        sup.record_miss(0)
        assert not sup.should_fence(0)
        sup.record_miss(0)
        assert sup.should_fence(0)

    def test_fence_not_advised_twice(self, fence_after):
        fence_after(1)
        sup = RankSupervisor(1)
        sup.record_ready(0)
        sup.record_miss(0)
        assert sup.should_fence(0)
        sup.record_fenced(0)
        sup.record_exit(0, exitcode=-9)
        assert not sup.should_fence(0)
        assert sup.records[0].fenced

    def test_ready_rank_never_fenced(self, fence_after):
        fence_after(1)
        sup = RankSupervisor(1)
        sup.record_ready(0)
        assert not sup.should_fence(0)

    def test_double_fence_is_a_noop(self, fence_after):
        fence_after(1)
        # two recovery paths may both decide to fence; the second SIGKILL
        # against an already-fenced rank must not re-emit or re-count
        sup = RankSupervisor(1)
        sup.record_ready(0)
        sup.record_miss(0)
        with obs.tracing() as tracer:
            sup.record_fenced(0)
            sup.record_fenced(0)
        assert len(_events(tracer, "comm.backend.fenced")) == 1
        assert sup.records[0].fenced

    def test_fencing_an_already_dead_rank_is_a_noop(self, fence_after):
        fence_after(1)
        # the rank crashed (exit recorded) before the fence advice landed:
        # it died on its own, so it must not be reported as fenced
        sup = RankSupervisor(1)
        sup.record_ready(0)
        sup.record_exit(0, exitcode=-9)
        with obs.tracing() as tracer:
            sup.record_fenced(0)
        assert _events(tracer, "comm.backend.fenced") == []
        assert not sup.records[0].fenced
        assert sup.state(0) == DEAD


class TestClassification:
    def test_dead_rank_classifies_as_rank_dead(self):
        sup = RankSupervisor(2)
        sup.record_exit(1, exitcode=-9)
        fault = sup.classify(1, seq=17)
        assert isinstance(fault, RankDeadError)
        assert fault.rank == 1
        assert fault.context["exitcode"] == -9
        assert fault.context["seq"] == 17

    def test_fenced_rank_names_the_fencing(self):
        sup = RankSupervisor(1)
        sup.record_fenced(0)
        sup.record_exit(0, exitcode=-9)
        fault = sup.classify(0)
        assert isinstance(fault, RankDeadError)
        assert fault.context["fenced"] is True
        assert "fenced" in str(fault)

    def test_suspect_rank_stays_retryable(self):
        sup = RankSupervisor(1)
        sup.record_ready(0)
        sup.record_miss(0)
        fault = sup.classify(0)
        assert isinstance(fault, MessageTimeout)
        assert not isinstance(fault, RankDeadError)
        assert fault.context["misses"] == 1


class TestTelemetry:
    def test_lifecycle_emits_backend_events(self, fence_after):
        fence_after(2)
        with obs.tracing() as tracer:
            sup = RankSupervisor(1)
            sup.record_ready(0)
            sup.record_miss(0)
            sup.record_ready(0)       # recovered
            sup.record_miss(0)
            sup.record_miss(0)
            sup.record_fenced(0)
            sup.record_exit(0, exitcode=-9)
            sup.classify(0)
        misses = _events(tracer, "comm.backend.heartbeat_miss")
        assert [e["attrs"]["fence_after"] for e in misses] == [2, 2, 2]
        (rec,) = _events(tracer, "comm.backend.recovered")
        assert rec["attrs"]["rank"] == 0
        (fenced,) = _events(tracer, "comm.backend.fenced")
        assert fenced["attrs"]["misses"] == 2
        (exit_ev,) = _events(tracer, "comm.backend.rank_exit")
        assert exit_ev["attrs"]["fenced"] is True
        (cls,) = _events(tracer, "comm.backend.classified")
        assert cls["attrs"]["fault"] == "RankDeadError"

    def test_census_snapshot(self):
        sup = RankSupervisor(2)
        sup.record_spawn(0, pid=42)
        sup.record_ready(0)
        sup.record_exit(1, exitcode=0)
        census = sup.census()
        assert census[0]["state"] == READY and census[0]["pid"] == 42
        assert census[1]["state"] == DEAD and census[1]["exitcode"] == 0
