"""End-to-end deadline propagation.

A job's ``deadline_s`` is one budget spent at every layer:

* **queueing** spends it first — a job whose deadline lapsed while queued
  is shed without touching a worker;
* the **Krylov iteration budget** is clamped per solver chunk: the runner
  divides the remaining seconds by an EWMA estimate of this
  (case, preconditioner)'s seconds-per-iteration and rounds down to whole
  FGMRES restart cycles, so a solve never starts a cycle it cannot afford;
* the **comm retry budget** shrinks with it: :func:`scaled_retry_policy`
  caps the transport :class:`~repro.comm.communicator.RetryPolicy` so the
  worst-case cumulative retry wait of a single transfer stays a small
  share of the time left — a nearly-expired job fails fast on a flaky
  link instead of burning its last seconds in backoff.

The estimator learns online: every finished chunk feeds
:meth:`IterationRateEstimator.observe`, so budgets tighten toward real
throughput as traffic flows.
"""

from __future__ import annotations

import math
import threading
import time

from repro.comm.communicator import RetryPolicy

#: EWMA weight of the newest chunk's seconds-per-iteration
RATE_ALPHA = 0.3

#: seconds-per-iteration assumed for a shape no chunk has timed yet
RATE_DEFAULT_S = 1e-3

#: share of the time left that one transfer's worst-case retry wait may take
RETRY_SHARE = 0.1


class Deadline:
    """Absolute end-to-end deadline on an injectable monotonic clock.

    ``start`` anchors the budget (default: now).  The runner anchors at the
    job's *submission* time, so seconds spent queued are already spent —
    end-to-end means end-to-end.
    """

    def __init__(
        self,
        seconds: float | None,
        clock=time.monotonic,
        start: float | None = None,
    ) -> None:
        self.clock = clock
        self.seconds = seconds
        if seconds is None:
            self._expires = None
        else:
            self._expires = (clock() if start is None else start) + seconds

    def remaining(self) -> float:
        """Seconds left; ``math.inf`` when the job has no deadline."""
        if self._expires is None:
            return math.inf
        return self._expires - self.clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0


class IterationRateEstimator:
    """EWMA seconds-per-iteration, keyed by (case, precond, size) shape."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rates: dict[tuple, float] = {}

    def observe(self, key: tuple, wall_s: float, iterations: int) -> None:
        if iterations < 1 or wall_s <= 0:
            return
        rate = wall_s / iterations
        with self._lock:
            prev = self._rates.get(key, None)
            if prev is None:
                self._rates[key] = rate
            else:
                self._rates[key] = (1 - RATE_ALPHA) * prev + RATE_ALPHA * rate

    def estimate(self, key: tuple) -> float:
        with self._lock:
            return self._rates.get(key, RATE_DEFAULT_S)


def iteration_budget(
    remaining_s: float,
    sec_per_iter: float,
    restart: int,
    max_chunk: int,
) -> int:
    """Iterations affordable in ``remaining_s``, in whole restart cycles.

    Never below one restart cycle (a chunk that cannot checkpoint makes no
    progress), never above ``max_chunk``.
    """
    if not math.isfinite(remaining_s):
        return max_chunk
    affordable = int(remaining_s / max(sec_per_iter, 1e-12))
    cycles = max(1, affordable // max(restart, 1))
    return max(restart, min(max_chunk, cycles * restart))


def scaled_retry_policy(base: RetryPolicy, remaining_s: float) -> RetryPolicy:
    """Shrink ``base`` so one transfer's worst case fits the deadline.

    The worst-case cumulative wait of a policy is
    ``timeout * (backoff^(max_retries+1) - 1) / (backoff - 1)``; the scaled
    policy caps that at ``RETRY_SHARE * remaining_s`` (floored at 1 ms so a
    nearly-dead job still gets one honest attempt).  Without a deadline the
    base policy is returned unchanged.
    """
    if not math.isfinite(remaining_s):
        return base
    attempts = base.max_retries + 1
    if base.backoff > 1.0:
        worst = base.timeout * (base.backoff**attempts - 1) / (base.backoff - 1)
    else:
        worst = base.timeout * attempts
    budget = max(1e-3, RETRY_SHARE * max(remaining_s, 0.0))
    if worst <= budget or worst <= 0:
        return base
    return RetryPolicy(
        max_retries=base.max_retries,
        timeout=base.timeout * (budget / worst),
        backoff=base.backoff,
    )
