"""The execution-backend interface.

A :class:`~repro.comm.communicator.Communicator` delegates *how ranks
execute and how bytes move between them* to an :class:`ExecutionBackend`:

* ``inprocess`` — the historical simulation: every rank is a slice of the
  driver process, and nothing can be lost outside fault injection.  This
  is the default and is bit-identical to the pre-backend behavior.
* ``multiprocess`` — every rank is a real OS process; worker commands
  travel as :mod:`~repro.comm.backends.framing` frames over pipes, and a
  :class:`~repro.comm.backends.supervisor.RankSupervisor` tracks the rank
  lifecycle (heartbeats, real death, hangs, fencing).

On both, a ghost exchange is a copy between arrays the driver holds.

The transport speaks two *internal* exceptions — :class:`TransportTimeout`
and :class:`TransportBroken` — that never escape the delivery round
(:func:`repro.comm.delivery.deliver_round`, the transport's one consumer):
it converts them into retries and finally the typed
:class:`~repro.resilience.errors.CommFault` taxonomy via
:meth:`ExecutionBackend.classify`.
"""

from __future__ import annotations

from repro import obs
from repro.comm.backends.arena import Arena
from repro.comm.communicator import RetryPolicy
from repro.resilience.errors import CommFault

#: selectable backend names, in documentation order
BACKEND_NAMES = ("inprocess", "multiprocess")

#: environment override consulted when no explicit backend is requested
BACKEND_ENV = "REPRO_COMM_BACKEND"


class TransportTimeout(Exception):
    """No response arrived within the attempt's timeout window.

    Internal to the delivery loop — the retry policy decides whether this
    becomes another attempt or a typed :class:`CommFault`.
    """

    def __init__(self, rank: int, timeout: float) -> None:
        super().__init__(f"rank {rank} did not respond within {timeout:.3g}s")
        self.rank = rank
        self.timeout = timeout


class TransportBroken(Exception):
    """The transport endpoint is gone (process exited, pipe closed).

    Internal to the delivery loop; the supervisor has already recorded the
    death by the time this is raised.
    """

    def __init__(self, rank: int, detail: str = "") -> None:
        super().__init__(f"transport to rank {rank} is broken"
                         + (f": {detail}" if detail else ""))
        self.rank = rank


class ExecutionBackend:
    """How ``size`` ranks execute and exchange envelope-framed bytes.

    Lifecycle: backends start lazily (:meth:`ensure_started`) on first
    transfer.  A backend is a *world*: besides its ranks (and the state
    resident in them, which only the ranks record) it keeps the envelope
    seq counters and each rank's shared-memory arena, so a communicator
    that leases a pooled world (``repro.comm.backends.pool``) carries on
    where the last one stopped.
    ``is_real`` distinguishes backends whose ranks are real processes,
    which can *actually* die, from the simulated default: only they carry
    frames and run worker commands.
    """

    #: short selectable name (one of :data:`BACKEND_NAMES`)
    name: str = "abstract"
    #: True when ranks are real OS processes (commands cross the wire)
    is_real: bool = False

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("backend size must be >= 1")
        self.size = size
        # world state: it outlives any one communicator on this backend
        #: per-(src, dst) envelope sequence counters (:meth:`next_seq`)
        self.seq: dict[tuple[int, int], int] = {}
        #: a round gave up, or a fault plan was active: never reuse this world
        self.damaged = False
        self._arenas: dict[int, Arena] = {}
        self._arena_gen = 0

    def next_seq(self, src: int, dst: int) -> int:
        """Monotone per-(src, dst) envelope sequence number (starts at 0).

        Kept by the world, not by a communicator, so a communicator that
        leases a world after another never reuses a seq whose reply may
        still sit in a pipe.
        """
        key = (src, dst)
        seq = self.seq.get(key, 0)
        self.seq[key] = seq + 1
        return seq

    # -- shared-memory arenas ----------------------------------------------

    def arena(self, rank: int, nfloats: int) -> Arena:
        """``rank``'s arena, with slots of at least ``nfloats`` doubles;
        created at the first vector op and replaced by a larger one when a
        later op outgrows it."""
        have = self._arenas.get(rank)
        if have is not None and have.nfloats >= nfloats:
            return have
        if have is not None:
            have.close()
        self._arena_gen += 1
        made = Arena.create(max(nfloats, 1, 2 * (have.nfloats if have else 0)),
                            self._arena_gen)
        self._arenas[rank] = made
        obs.event("comm.backend.arena", backend=self.name, rank=rank,
                  nbytes=made.nbytes, gen=made.gen)
        return made

    def forget_rank(self, rank: int) -> None:
        """Drop ``rank``'s arena: a new process in its place maps none."""
        arena = self._arenas.pop(rank, None)
        if arena is not None:
            arena.close()

    def close_arenas(self) -> None:
        for rank in sorted(self._arenas):
            self._arenas[rank].close()
        self._arenas.clear()

    # -- lifecycle ---------------------------------------------------------

    def ensure_started(self) -> None:
        """Idempotently bring every rank up (spawn + handshake)."""

    def shutdown(self) -> None:
        """Stop every rank and release transport resources (idempotent)."""

    # -- transport ---------------------------------------------------------

    def request_many(self, messages, timeout: float):
        """Round-trip a batch ``{rank: raw frame}``; per-rank results or errors.

        Returns ``{rank: Frame | Exception}``: the validated response frame
        (decoded exactly once, here), or the failure as a *value* —
        :class:`TransportTimeout`, :class:`TransportBroken`, or
        ``MessageCorruption`` for a response that arrived garbled — so one
        bad rank cannot mask the others.  Real transports send everything
        before collecting anything, so rank processes overlap their work.
        """
        raise NotImplementedError(
            f"backend {self.name!r} has no transport: its ranks are the driver"
        )

    # -- liveness / supervision -------------------------------------------

    def check_alive(self, rank: int) -> bool:
        """Cheap liveness check (no wire traffic); records deaths."""
        self._check_rank(rank)
        return True

    def rank_pid(self, rank: int) -> int | None:
        """OS pid of ``rank``'s process (None for simulated ranks)."""
        self._check_rank(rank)
        return None

    def record_ready(self, rank: int) -> None:
        """``rank`` answered correctly: a free heartbeat, its misses reset."""

    def handle_timeout(self, rank: int) -> str:
        """``rank`` let a window pass: count the miss, maybe fence; returns its state."""
        raise NotImplementedError(f"backend {self.name!r} cannot time out")

    def classify(self, rank: int, **context) -> CommFault:
        """The typed fault describing ``rank``'s current failure state."""
        raise NotImplementedError(
            f"backend {self.name!r} has no failure states to classify"
        )

    # -- fault injection hooks --------------------------------------------

    def kill_rank(self, rank: int) -> None:
        """SIGKILL ``rank``'s process (the ``proc-kill`` injector)."""
        raise ValueError(
            f"backend {self.name!r} has no real processes to kill — "
            "proc faults need the multiprocess backend"
        )

    def hang_rank(self, rank: int) -> None:
        """SIGSTOP ``rank``'s process (the ``proc-hang`` injector)."""
        raise ValueError(
            f"backend {self.name!r} has no real processes to stop — "
            "proc faults need the multiprocess backend"
        )

    def resume_rank(self, rank: int) -> None:
        """SIGCONT a previously hung rank (test cleanup aid)."""
        raise ValueError(
            f"backend {self.name!r} has no real processes to resume"
        )

    # -- policy ------------------------------------------------------------

    def default_retry_policy(self) -> RetryPolicy:
        """The retry policy a communicator adopts when none is given."""
        return RetryPolicy()

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} not in [0, {self.size})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(size={self.size})"
