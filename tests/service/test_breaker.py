"""Circuit breakers: trip, cooldown, half-open probe, unbreakable rungs."""

import pytest

from repro import obs
from repro.service import breaker
from repro.service.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture()
def board(monkeypatch):
    """A board on ``clock`` with the breaker constants set for one test."""
    def make(clock, threshold=3, cooldown=5.0):
        monkeypatch.setattr(breaker, "FAIL_THRESHOLD", threshold)
        monkeypatch.setattr(breaker, "COOLDOWN_S", cooldown)
        return BreakerBoard(clock=clock)
    return make


def _events(tracer, name):
    evs = [e for e in tracer.orphan_events if e["name"] == name]
    for s in tracer.spans:
        evs.extend(e for e in s.events if e["name"] == name)
    return evs


class TestTrip:
    def test_closed_until_threshold_consecutive_failures(self, board):
        b = board(FakeClock(), threshold=3)
        b.record_failure("schur1")
        b.record_failure("schur1")
        assert b.state("schur1") == CLOSED and b.allow("schur1")
        b.record_failure("schur1")
        assert b.state("schur1") == OPEN and not b.allow("schur1")

    def test_success_resets_the_consecutive_count(self, board):
        b = board(FakeClock(), threshold=2)
        b.record_failure("schur1")
        b.record_success("schur1")
        b.record_failure("schur1")
        assert b.state("schur1") == CLOSED

    def test_trip_emits_breaker_open_event(self, board):
        b = board(FakeClock(), threshold=1)
        with obs.tracing() as tracer:
            b.record_failure("schur2")
        (ev,) = _events(tracer, "service.breaker.open")
        assert ev["attrs"]["precond"] == "schur2"

    def test_circuits_are_independent(self, board):
        b = board(FakeClock(), threshold=1)
        b.record_failure("schur1")
        assert not b.allow("schur1") and b.allow("schur2")


class TestCooldownAndProbe:
    def test_open_holds_until_cooldown_then_half_open_probe(self, board):
        clock = FakeClock()
        b = board(clock, threshold=1, cooldown=5.0)
        b.record_failure("schur1")
        clock.advance(4.9)
        assert not b.allow("schur1")
        clock.advance(0.2)
        assert b.allow("schur1")                 # the single probe
        assert b.state("schur1") == HALF_OPEN
        assert not b.allow("schur1")             # everyone else held back

    def test_probe_success_closes(self, board):
        clock = FakeClock()
        b = board(clock, threshold=1, cooldown=1.0)
        b.record_failure("schur1")
        clock.advance(1.1)
        assert b.allow("schur1")
        b.record_success("schur1")
        assert b.state("schur1") == CLOSED and b.allow("schur1")

    def test_probe_failure_reopens_for_another_cooldown(self, board):
        clock = FakeClock()
        b = board(clock, threshold=3, cooldown=1.0)
        for _ in range(3):
            b.record_failure("schur1")
        clock.advance(1.1)
        assert b.allow("schur1")
        b.record_failure("schur1")  # one probe failure re-trips immediately
        assert b.state("schur1") == OPEN and not b.allow("schur1")
        assert b.stats()["schur1"]["trips"] == 2


class TestUnbreakable:
    def test_jacobi_is_never_tripped(self, board):
        b = board(FakeClock(), threshold=1)
        for _ in range(10):
            b.record_failure("jacobi")
        assert b.allow("jacobi") and b.state("jacobi") == CLOSED
        assert "jacobi" not in b.stats()


class TestOneChain:
    """The breaker router and ``ResilientSolver`` walk the same chain, read
    from ``resilient.FALLBACK_CHAIN`` when they run, not when they import."""

    def test_patched_chain_reaches_router_and_solver(self, board, monkeypatch):
        from repro import faults
        from repro.cases.poisson2d import poisson2d_case
        from repro.resilience import ResilientSolver, resilient
        from repro.service import runner

        monkeypatch.setattr(resilient, "FALLBACK_CHAIN", ("block1", "jacobi"))
        b = board(FakeClock(), threshold=1)
        b.record_failure("schur1")
        routed, degraded = runner._route_precond("schur1", b)

        plan = faults.FaultPlan(
            faults.FaultSpec("bad-pivot", count=-1, target="schur1")
        )
        with faults.inject(plan):
            res = ResilientSolver().solve(
                poisson2d_case(n=16), precond="schur1", nparts=2
            )
        walked = [a.precond for a in res.attempts if a.kind == "fallback"]
        assert (routed, degraded) == ("block1", True)
        assert walked[0] == routed
