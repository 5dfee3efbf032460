"""The lifecycle tables, against the real classes.

RPR011 proves each module's ``_TRANSITIONS`` table sound and that every
state write goes through it.  These tests drive the implementations: every
illegal job edge is refused at run time, and two exhaustive explorations of
the real ``RankSupervisor`` and ``BreakerBoard`` under a fake clock prove
what depends on more than the table — fencing only from SUSPECT with the
miss budget spent, and exactly one probe while half-open — and that every
state change either class makes is an edge of its table.  Parametrization
comes from the implementation modules, so extending a table grows this
coverage automatically.
"""

from collections import deque

import pytest

from repro.comm.backends import supervisor
from repro.comm.backends.supervisor import (
    DEAD,
    READY,
    SUSPECT,
    RankSupervisor,
)
from repro.service import breaker
from repro.service.breaker import BreakerBoard
from repro.service.job import (
    _TRANSITIONS,
    JOB_STATUSES,
    TERMINAL_STATUSES,
    JobRecord,
    JobSpec,
)


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _record(status: str) -> JobRecord:
    rec = JobRecord("job-1", JobSpec())
    if status == "running":
        rec.transition("running")
    elif status != "queued":
        path = {"queued": (), "converged": ("running",),
                "failed": ("running",), "shed": (), "cancelled": ()}[status]
        for step in path:
            rec.transition(step)
        rec.transition(status)
    return rec


def _illegal_job_edges():
    for src in JOB_STATUSES:
        for dst in JOB_STATUSES:
            if dst not in _TRANSITIONS.get(src, ()):
                yield src, dst


def _explore(start, events, step, key):
    """Breadth-first search over ``key`` of a real object, replaying paths.

    ``start()`` builds a fresh object; ``step(obj, event)`` applies one
    event.  Yields ``(event, before, after)`` for every event from every
    reachable abstract state, ``before``/``after`` being ``key(obj)``.
    """
    def replay(path):
        obj = start()
        for event in path:
            step(obj, event)
        return obj

    seen = {key(start()): ()}
    queue = deque(seen.items())
    while queue:
        state, path = queue.popleft()
        for event in events:
            obj = replay(path)
            step(obj, event)
            after = key(obj)
            yield event, state, after
            if after not in seen:
                seen[after] = path + (event,)
                queue.append((after, seen[after]))


class TestJobRecordRejectsIllegalEdges:
    @pytest.mark.parametrize("src,dst", sorted(_illegal_job_edges()))
    def test_illegal_transition_raises(self, src, dst):
        rec = _record(src)
        assert rec.status == src
        with pytest.raises(ValueError, match="illegal transition|unknown"):
            rec.transition(dst)
        assert rec.status == src  # refused edges leave the state untouched

    @pytest.mark.parametrize("terminal", TERMINAL_STATUSES)
    def test_cancel_after_terminal_refused(self, terminal):
        rec = _record(terminal)
        with pytest.raises(ValueError, match="illegal transition"):
            rec.transition("cancelled")

    @pytest.mark.parametrize("src,dst", [
        (src, dst) for src, dsts in _TRANSITIONS.items() for dst in dsts
    ])
    def test_every_spec_edge_is_accepted(self, src, dst):
        rec = _record(src)
        rec.transition(dst)
        assert rec.status == dst


class TestSupervisorTerminalAndFencing:
    @pytest.fixture()
    def make_sup(self, monkeypatch):
        def make(fence_after: int = 3) -> RankSupervisor:
            monkeypatch.setattr(supervisor, "FENCE_AFTER", fence_after)
            return RankSupervisor(1)
        return make

    def test_no_resurrection_after_dead(self, make_sup):
        sup = make_sup()
        sup.record_exit(0, exitcode=-9)
        assert sup.state(0) == DEAD
        sup.record_ready(0)  # late reply from a fenced rank: noise
        assert sup.state(0) == DEAD
        sup.record_miss(0)
        assert sup.state(0) == DEAD and sup.records[0].misses == 0

    def test_fence_requires_suspect_and_exhausted_budget(self, make_sup):
        sup = make_sup(fence_after=2)
        assert not sup.should_fence(0)          # SPAWNED: never
        sup.record_ready(0)
        assert not sup.should_fence(0)          # READY: never
        assert sup.record_miss(0) == SUSPECT
        assert not sup.should_fence(0)          # budget not exhausted
        sup.record_miss(0)
        assert sup.should_fence(0)              # SUSPECT + budget: fence
        sup.record_fenced(0)
        assert not sup.should_fence(0)          # idempotent advice
        sup.record_exit(0, exitcode=-9)
        assert not sup.should_fence(0)          # DEAD: never again

    def test_probe_reply_deescalates_suspect(self, make_sup):
        sup = make_sup(fence_after=2)
        sup.record_miss(0)
        assert sup.state(0) == SUSPECT
        sup.record_ready(0)
        assert sup.state(0) == READY and sup.records[0].misses == 0


class TestBreakerSingleProbe:
    @pytest.fixture(autouse=True)
    def _constants(self, monkeypatch):
        monkeypatch.setattr(breaker, "FAIL_THRESHOLD", 2)
        monkeypatch.setattr(breaker, "COOLDOWN_S", 5.0)

    def _board(self) -> tuple[BreakerBoard, FakeClock]:
        clock = FakeClock()
        return BreakerBoard(clock=clock), clock

    def _trip(self, board: BreakerBoard) -> None:
        board.record_failure("ilu0")
        board.record_failure("ilu0")
        assert board.state("ilu0") == "open"

    def test_open_denies_until_cooldown(self):
        board, clock = self._board()
        self._trip(board)
        assert not board.allow("ilu0")
        clock.advance(5.1)
        assert board.allow("ilu0")  # the one probe

    def test_second_probe_denied_while_half_open(self):
        board, clock = self._board()
        self._trip(board)
        clock.advance(5.1)
        assert board.allow("ilu0")
        assert board.state("ilu0") == "half-open"
        # spec invariant: half-open admits exactly one probe
        assert not board.allow("ilu0")
        assert not board.allow("ilu0")

    def test_probe_failure_reopens_for_full_cooldown(self):
        board, clock = self._board()
        self._trip(board)
        clock.advance(5.1)
        assert board.allow("ilu0")
        board.record_failure("ilu0")  # single half-open failure re-trips
        assert board.state("ilu0") == "open"
        assert not board.allow("ilu0")
        clock.advance(5.1)
        assert board.allow("ilu0")

    def test_probe_success_closes_and_recovers(self):
        board, clock = self._board()
        self._trip(board)
        clock.advance(5.1)
        assert board.allow("ilu0")
        board.record_success("ilu0")
        assert board.state("ilu0") == "closed"
        assert board.allow("ilu0") and board.allow("ilu0")

    def test_late_success_closes_an_open_circuit(self):
        board, _clock = self._board()
        assert all(board.allow("ilu0") for _ in range(4))  # admitted closed
        board.record_failure("ilu0")
        board.record_failure("ilu0")
        assert board.state("ilu0") == "open"  # two jobs still in flight
        board.record_success("ilu0")          # one finishes after the trip
        assert board.state("ilu0") == "closed"
        assert "closed" in breaker._TRANSITIONS["open"]
        board.record_failure("ilu0")          # the other: one failure of two
        assert board.state("ilu0") == "closed"
        assert board.stats()["ilu0"]["trips"] == 1


def _changes(table):
    return {(src, dst) for src, dsts in table.items() for dst in dsts
            if src != dst}


class TestSupervisorExploration:
    """Every reachable (state, misses, fenced) of a real one-rank supervisor."""

    @staticmethod
    def _step(sup, event):
        if event == "spawn":
            sup.record_spawn(0, pid=None)
        elif event == "ready":
            sup.record_ready(0)
        elif event == "miss":
            sup.record_miss(0)
        elif event == "exit":
            sup.record_exit(0, exitcode=-9)
        else:
            sup.record_fenced(0)

    @pytest.mark.parametrize("fence_after", [1, 2, 3])
    def test_fence_only_from_suspect_with_the_budget_spent(
            self, fence_after, monkeypatch):
        monkeypatch.setattr(supervisor, "FENCE_AFTER", fence_after)

        def start():
            return RankSupervisor(1)

        def key(sup):
            rec = sup.records[0]  # misses past the budget fence the same
            return (rec.state, min(rec.misses, fence_after), rec.fenced,
                    sup.should_fence(0))

        reached, fenced_from, taken = set(), set(), set()
        for event, before, after in _explore(
                start, ("spawn", "ready", "miss", "exit", "fenced"),
                self._step, key):
            reached.add(after)
            if after[3]:
                fenced_from.add(after[:2])
            if event != "spawn" and after[0] != before[0]:  # spawn: the reset
                taken.add((before[0], after[0]))
        assert {state for state, *_ in reached} == set(supervisor.RANK_STATES)
        assert fenced_from == {(SUSPECT, fence_after)}
        assert taken == _changes(supervisor._TRANSITIONS)


class TestBreakerExploration:
    """Every reachable (state, failures, probes in flight) of a real board."""

    class _Harness:
        def __init__(self):
            self.clock = FakeClock()
            self.board = BreakerBoard(clock=self.clock)
            self.probes = 0  # allow() grants since the circuit left closed

    @staticmethod
    def _step(h, event):
        before = h.board.state("ilu0")
        if event == "allow-warm":
            h.clock.advance(5.1)  # past the cooldown
        if event.startswith("allow"):
            if h.board.allow("ilu0") and before != "closed":
                h.probes += 1
        elif event == "success":
            h.board.record_success("ilu0")
        else:
            h.board.record_failure("ilu0")
        if h.board.state("ilu0") != "half-open":
            h.probes = 0

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_half_open_admits_exactly_one_probe(self, threshold, monkeypatch):
        monkeypatch.setattr(breaker, "FAIL_THRESHOLD", threshold)
        monkeypatch.setattr(breaker, "COOLDOWN_S", 5.0)

        def key(h):
            state = h.board.state("ilu0")
            failures = h.board.stats()["ilu0"]["consecutive_failures"]
            # a second probe is the bug; capping keeps a buggy board finite
            return state, min(failures, threshold), min(h.probes, 2)

        reached, taken = set(), set()
        for _event, before, after in _explore(
                self._Harness,
                ("allow-cool", "allow-warm", "success", "failure"),
                self._step, key):
            reached.add(after)
            if after[0] != before[0]:
                taken.add((before[0], after[0]))
        assert {state for state, *_ in reached} == set(breaker.BREAKER_STATES)
        assert {probes for state, _f, probes in reached
                if state == "half-open"} == {1}
        assert max(probes for *_, probes in reached) == 1
        assert taken == _changes(breaker._TRANSITIONS)
