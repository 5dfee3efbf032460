"""The execution-backend interface.

A :class:`~repro.comm.communicator.Communicator` delegates *how ranks
execute and how bytes move between them* to an :class:`ExecutionBackend`:

* ``inprocess`` — the historical simulation: every rank is a slice of the
  driver process, a transfer is an array copy, and nothing can be lost
  outside fault injection.  This is the default and is bit-identical to the
  pre-backend behavior.
* ``multiprocess`` — every rank is a real OS process; transfers travel as
  :mod:`~repro.comm.backends.framing` frames over pipes, and a
  :class:`~repro.comm.backends.supervisor.RankSupervisor` tracks the rank
  lifecycle (heartbeats, real death, hangs, fencing).

The transport speaks two *internal* exceptions — :class:`TransportTimeout`
and :class:`TransportBroken` — that never escape the delivery round
(:func:`repro.comm.delivery.deliver_round`, the transport's one consumer):
it converts them into retries and finally the typed
:class:`~repro.resilience.errors.CommFault` taxonomy via
:meth:`ExecutionBackend.classify`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

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


class ExecutionBackend(ABC):
    """How ``size`` ranks execute and exchange envelope-framed bytes.

    Lifecycle: backends start lazily (:meth:`ensure_started`) on first
    transfer and are shut down by the owning communicator's ``close()``.
    ``is_real`` distinguishes backends whose ranks can *actually* die from
    the simulated default — the ghost exchange routes every transfer
    through the wire when it is True.
    """

    #: short selectable name (one of :data:`BACKEND_NAMES`)
    name: str = "abstract"
    #: True when ranks are real OS processes (transfers must use the wire)
    is_real: bool = False

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("backend size must be >= 1")
        self.size = size

    # -- lifecycle ---------------------------------------------------------

    def ensure_started(self) -> None:
        """Idempotently bring every rank up (spawn + handshake)."""

    def shutdown(self) -> None:
        """Stop every rank and release transport resources (idempotent)."""

    # -- transport ---------------------------------------------------------

    @abstractmethod
    def request_many(self, messages, timeout: float):
        """Round-trip a batch ``{rank: raw frame}``; per-rank results or errors.

        Returns ``{rank: Frame | Exception}``: the validated response frame
        (decoded exactly once, here), or the failure as a *value* —
        :class:`TransportTimeout`, :class:`TransportBroken`, or
        ``MessageCorruption`` for a response that arrived garbled — so one
        bad rank cannot mask the others.  Real transports send everything
        before collecting anything, so rank processes overlap their work.
        """

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
