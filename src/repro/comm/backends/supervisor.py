"""Rank-lifecycle supervision for real-process backends.

The supervisor is the bookkeeping half of the robustness story: for every
rank it tracks a small state machine, whose edges are the module's
``_TRANSITIONS`` table

::

    SPAWNED ──hello──▶ READY ──round timed out──▶ SUSPECT ──fence──▶ DEAD
       │                 ▲                         │   ▲               ▲
       │                 └──── round answered ─────┘   │               │
       ├──────────────────── round timed out ──────────┘               │
       └────── process exit (from any live state) ─────────────────────┘

Every observation of a DEAD rank is a no-op; ``record_spawn`` is the one
reset, starting a respawned rank over at SPAWNED.  The supervisor
classifies the terminal states into the existing
:class:`~repro.resilience.errors.CommFault` taxonomy:

* a rank whose OS process **exited** (clean exit, SIGKILL, crash) is DEAD
  and classifies as :class:`RankDeadError`;
* a rank that is alive but **unresponsive** (SIGSTOP, livelock) lets
  command rounds time out and is SUSPECT; once ``FENCE_AFTER`` consecutive
  rounds have timed out the supervisor *fences* it — SIGKILLs the stuck
  process so it cannot wake up mid-recovery and corrupt the rebuilt world —
  and the rank is DEAD;
* a SUSPECT rank that has not yet exhausted its miss budget classifies as
  :class:`MessageTimeout`, so bounded stalls stay retryable.

Nothing probes a rank.  Liveness is what the driver already observes: the
HELLO handshake at spawn, the OS exit status, and the command rounds
(``docs/robustness.md``, "The delivery round").  Every reply a rank sends
to a round calls :meth:`RankSupervisor.record_ready`, which is what makes
``FENCE_AFTER`` a budget of *consecutive* misses; every window a round
lets pass calls :meth:`RankSupervisor.record_miss`.  A ghost edge of an
exchange never reaches a rank and counts for neither.  Every
transition emits a ``comm.backend.*`` trace event
(``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.resilience.errors import CommFault, MessageTimeout, RankDeadError

#: lifecycle states, in escalation order
SPAWNED = "spawned"
READY = "ready"
SUSPECT = "suspect"
DEAD = "dead"

RANK_STATES = (SPAWNED, READY, SUSPECT, DEAD)

#: legal lifecycle edges; DEAD has none, so it absorbs every observation
_TRANSITIONS = {
    SPAWNED: (READY, SUSPECT, DEAD),
    READY: (READY, SUSPECT, DEAD),
    SUSPECT: (READY, SUSPECT, DEAD),
}


#: consecutive timed-out rounds after which a SUSPECT rank is fenced (SIGKILL)
FENCE_AFTER = 3


@dataclass
class RankRecord:
    """One rank's supervision state."""

    rank: int
    state: str = SPAWNED
    pid: int | None = None
    misses: int = 0
    exitcode: int | None = None
    fenced: bool = False

    def as_dict(self) -> dict[str, object]:
        return {
            "rank": self.rank,
            "state": self.state,
            "pid": self.pid,
            "misses": self.misses,
            "exitcode": self.exitcode,
            "fenced": self.fenced,
        }


class RankSupervisor:
    """Tracks per-rank lifecycle state and classifies failures.

    The supervisor is transport-agnostic: the owning backend reports
    observations (``record_*``) and asks two questions — *should this rank
    be fenced?* (:meth:`should_fence`) and *what fault describes it?*
    (:meth:`classify`).  The backend performs the actual SIGKILL, because
    only it holds the process handles.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("supervisor size must be >= 1")
        self.records = [RankRecord(rank=r) for r in range(size)]

    # -- observations ------------------------------------------------------

    @staticmethod
    def _enter(rec: RankRecord, state: str) -> bool:
        """Take the ``_TRANSITIONS`` edge to ``state``; False once DEAD."""
        if rec.state not in _TRANSITIONS:
            return False  # death is terminal; late observations are noise
        if state not in _TRANSITIONS[rec.state]:
            raise ValueError(
                f"illegal rank transition {rec.state!r} -> {state!r}"
            )
        rec.state = state
        return True

    def record_spawn(self, rank: int, pid: int | None) -> None:
        """The reset, outside the table: a respawned rank starts over."""
        rec = self.records[rank]
        rec.pid = pid
        rec.state = SPAWNED

    def record_ready(self, rank: int) -> None:
        """A HELLO (startup) or a round's reply arrived: the rank is healthy."""
        rec = self.records[rank]
        was = rec.state
        if not self._enter(rec, READY):
            return
        if was == SUSPECT:
            obs.event("comm.backend.recovered", rank=rank, misses=rec.misses)
        rec.misses = 0

    def record_miss(self, rank: int) -> str:
        """A round's window passed unanswered; returns the rank's new state."""
        rec = self.records[rank]
        if not self._enter(rec, SUSPECT):
            return rec.state
        rec.misses += 1
        obs.event(
            "comm.backend.heartbeat_miss", rank=rank, misses=rec.misses,
            fence_after=FENCE_AFTER,
        )
        return rec.state

    def record_exit(self, rank: int, exitcode: int | None) -> None:
        """The rank's OS process is gone (exit, signal, or fencing)."""
        rec = self.records[rank]
        if not self._enter(rec, DEAD):
            return
        rec.exitcode = exitcode
        obs.event(
            "comm.backend.rank_exit", rank=rank, exitcode=exitcode,
            fenced=rec.fenced,
        )

    def record_fenced(self, rank: int) -> None:
        """The backend SIGKILLed an unresponsive rank on our advice.

        Idempotent: fencing an already-fenced (or already-DEAD) rank is a
        no-op — concurrent recovery paths may both decide to fence, and the
        second SIGKILL against a dead pid must not double-count or re-emit.
        """
        rec = self.records[rank]
        if rec.fenced or rec.state == DEAD:
            return
        rec.fenced = True
        obs.event("comm.backend.fenced", rank=rank, misses=rec.misses)

    # -- decisions ---------------------------------------------------------

    def should_fence(self, rank: int) -> bool:
        """True when the rank's miss budget is exhausted and it still lives."""
        rec = self.records[rank]
        return (
            rec.state == SUSPECT
            and not rec.fenced
            and rec.misses >= FENCE_AFTER
        )

    def state(self, rank: int) -> str:
        return self.records[rank].state

    def is_dead(self, rank: int) -> bool:
        return self.records[rank].state == DEAD

    def dead_ranks(self) -> list[int]:
        return [rec.rank for rec in self.records if rec.state == DEAD]

    def classify(self, rank: int, **context) -> CommFault:
        """The typed fault for ``rank``'s current state.

        DEAD → :class:`RankDeadError` (process-level, triggers absorb
        recovery); anything else → :class:`MessageTimeout` (message-level,
        stays retryable).  Emits ``comm.backend.classified``.
        """
        rec = self.records[rank]
        if rec.state == DEAD:
            fault: CommFault = RankDeadError(
                f"rank {rank} process is dead"
                + (" (fenced after timed-out rounds)" if rec.fenced else
                   f" (exitcode {rec.exitcode})"),
                rank=rank, exitcode=rec.exitcode, fenced=rec.fenced,
                **context,
            )
        else:
            fault = MessageTimeout(
                f"rank {rank} is unresponsive ({rec.misses} timed-out "
                f"round(s), state {rec.state})",
                rank=rank, misses=rec.misses, **context,
            )
        obs.event(
            "comm.backend.classified", rank=rank, state=rec.state,
            fault=type(fault).__name__,
        )
        return fault

    def census(self) -> list[dict[str, object]]:
        """Per-rank state snapshot (diagnostics / tests)."""
        return [rec.as_dict() for rec in self.records]
