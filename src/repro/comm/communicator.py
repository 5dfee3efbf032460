"""The simulated communicator: rank bookkeeping plus cost accounting."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.perfmodel.costs import COUNT_FIELDS, CostLedger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.comm.backends import ExecutionBackend


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded timeout/retry/backoff policy of the integrity envelope.

    A transfer is attempted up to ``1 + max_retries`` times; a failed
    attempt (drop, checksum mismatch, dead peer) costs a ``timeout``-second
    wait that grows by ``backoff``× per successive retry.  Exhausting the
    budget raises a typed :class:`~repro.resilience.errors.CommFault`.
    """

    max_retries: int = 3
    timeout: float = 2e-3
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout < 0.0:
            raise ValueError("timeout must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")

    def wait(self, attempt: int) -> float:
        """The timeout window charged for failed delivery ``attempt`` (0-based)."""
        return self.timeout * self.backoff**attempt


@dataclass
class CommStats:
    """Lifetime message-level counters of one communicator.

    ``messages`` counts envelope deliveries that succeeded on the first
    try as well; the failure counters only move under fault injection.
    ``straggler_waits`` counts deliveries that arrived *late but intact*
    (straggler lateness), which are otherwise indistinguishable from
    ``retries`` in the aggregate cost model.
    """

    messages: int = 0
    retries: int = 0
    timeouts: int = 0
    checksum_failures: int = 0
    rank_dead: int = 0
    straggler_waits: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "messages": self.messages,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "checksum_failures": self.checksum_failures,
            "rank_dead": self.rank_dead,
            "straggler_waits": self.straggler_waits,
        }


class Communicator:
    """A communicator over ``size`` processors.

    Holds the :class:`CostLedger` that all distributed operations charge.
    ``reset_ledger`` starts a fresh accounting period (e.g. to separate the
    preconditioner setup phase from the solve phase); the counters of every
    retired ledger are folded into a running total so
    :meth:`cumulative_counts` is monotone across resets — this is what the
    observability layer diffs to attribute costs to spans.

    The communicator also holds the :class:`RetryPolicy` the ghost exchange
    enforces and its own :class:`CommStats` message counters; the
    per-directed-pair envelope sequence counters (:meth:`next_seq`) belong
    to the backend's world, which may outlive the communicator.

    *How* the ranks execute is delegated to an
    :class:`~repro.comm.backends.ExecutionBackend` — ``inprocess`` (the
    default: simulated ranks, bit-identical to the historical behavior) or
    ``multiprocess`` (ranks as supervised OS processes).  ``backend`` may
    be a name, an instance, or None (``inprocess``).  A backend resolved
    from a name is given back in :meth:`close`: a multiprocess world returns
    to the per-process pool for the next communicator of its size, an
    in-process one is shut down.  An instance stays the caller's.
    """

    def __init__(
        self,
        size: int,
        retry_policy: RetryPolicy | None = None,
        backend: "str | ExecutionBackend | None" = None,
    ) -> None:
        if size < 1:
            raise ValueError("communicator size must be >= 1")
        self.size = size
        self.ledger = CostLedger(size)
        self._retired = {f: 0.0 for f in COUNT_FIELDS}
        # deferred import: backends import RetryPolicy from this module
        from repro.comm.backends import resolve_backend

        self.backend, self._owns_backend = resolve_backend(backend, size)
        self.retry_policy = retry_policy or self.backend.default_retry_policy()
        self.comm_stats = CommStats()
        self._closed = False
        self._close_lock = threading.Lock()

    def next_seq(self, src: int, dst: int) -> int:
        """Monotone per-(src, dst) envelope sequence number of the world
        (starts at 0 on a new one)."""
        return self.backend.next_seq(src, dst)

    def close(self) -> None:
        """Give back the execution backend (idempotent, owner-only):
        :func:`~repro.comm.backends.release_backend` pools a reusable
        multiprocess world and shuts down anything else.

        Safe under concurrent callers: exactly one close wins the flag and
        gives the backend back; every other call — same thread or racing
        threads (a drain path and a finalizer, say) — is a no-op.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._owns_backend:
            from repro.comm.backends import release_backend

            release_backend(self.backend)

    def reset_ledger(self) -> CostLedger:
        """Replace the ledger with a fresh one; returns the old ledger."""
        old = self.ledger
        for key, value in sorted(old.counts().items()):
            self._retired[key] += value
        self.ledger = CostLedger(self.size)
        return old

    def cumulative_counts(self) -> dict[str, float]:
        """Lifetime counter totals: every retired ledger plus the live one.

        Unlike ``self.ledger.counts()`` this never decreases, so span deltas
        taken against it remain valid across ``reset_ledger`` calls.
        """
        current = self.ledger.counts()
        return {k: current[k] + self._retired[k] for k in current}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Communicator(size={self.size}, backend={self.backend.name!r})"
        )
