"""Per-preconditioner circuit breakers.

A preconditioner that keeps breaking down (repeated
:class:`~repro.resilience.errors.FactorizationBreakdown`, divergence, NaN
faults) wastes every job's retry budget rediscovering the same failure.
The breaker board remembers: after ``fail_threshold`` consecutive failures
a preconditioner's circuit **opens** and the runner routes new jobs
straight down the fallback chain (:data:`repro.resilience.FALLBACK_CHAIN`)
instead of attempting it.  After ``cooldown_s`` the circuit goes
**half-open** and admits one probe job; a success closes it, a failure
re-opens it for another cooldown.

::

    closed ──fail_threshold failures──▶ open ──cooldown, allow()──▶ half-open
      ▲  ▲                              │  ▲                           │
      │  └──── late success ────────────┘  └────── probe failure ──────┤
      └──────────────────────── probe success ─────────────────────────┘

The edges are the module's ``_TRANSITIONS`` table, and ``_Circuit.move`` is
the one place a circuit changes state.  A *late success* is a job admitted
while the circuit was still closed finishing after other failures tripped
it: it closes the circuit again.  ``jacobi`` — the unbreakable last rung of
the fallback chain — is never tracked, so there is always a route to *some*
preconditioner.  Transitions emit ``service.breaker.*`` events
(``docs/observability.md``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro import obs

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

BREAKER_STATES = (CLOSED, OPEN, HALF_OPEN)

#: legal circuit edges; open -> closed is a late success
_TRANSITIONS = {
    CLOSED: (OPEN,),
    OPEN: (HALF_OPEN, CLOSED),
    HALF_OPEN: (CLOSED, OPEN),
}

#: never tripped: the chain's terminal rung must always stay routable
UNBREAKABLE = frozenset({"jacobi", "none"})


@dataclass(frozen=True)
class BreakerPolicy:
    """Trip/cooldown knobs shared by every tracked preconditioner."""

    fail_threshold: int = 3
    cooldown_s: float = 5.0

    def __post_init__(self) -> None:
        if self.fail_threshold < 1:
            raise ValueError("fail_threshold must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")


class _Circuit:
    """One preconditioner's breaker state (board lock serializes access)."""

    def __init__(self) -> None:
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.trips = 0

    def move(self, state: str) -> None:
        """Take the ``_TRANSITIONS`` edge to ``state``."""
        if state not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"illegal breaker transition {self.state!r} -> {state!r}"
            )
        self.state = state


class BreakerBoard:
    """Thread-safe circuit breakers keyed by preconditioner short name."""

    def __init__(
        self, policy: BreakerPolicy | None = None, clock=time.monotonic
    ) -> None:
        self.policy = policy or BreakerPolicy()
        self.clock = clock
        self._lock = threading.Lock()
        self._circuits: dict[str, _Circuit] = {}

    def _circuit(self, name: str) -> _Circuit:
        circuit = self._circuits.get(name, None)
        if circuit is None:
            circuit = self._circuits[name] = _Circuit()
        return circuit

    def allow(self, name: str) -> bool:
        """May a job attempt ``name`` now?  Half-open admits one probe."""
        if name in UNBREAKABLE:
            return True
        with self._lock:
            circuit = self._circuit(name)
            if circuit.state == CLOSED:
                return True
            if circuit.state == OPEN:
                elapsed = self.clock() - (circuit.opened_at or 0.0)
                if elapsed < self.policy.cooldown_s:
                    return False
                circuit.move(HALF_OPEN)
                obs.event("service.breaker.half_open", precond=name)
                return True
            # HALF_OPEN: one probe is already in flight; hold the rest back
            return False

    def record_success(self, name: str) -> None:
        if name in UNBREAKABLE:
            return
        with self._lock:
            circuit = self._circuit(name)
            was = circuit.state
            circuit.consecutive_failures = 0
            if was != CLOSED:
                circuit.move(CLOSED)
                circuit.opened_at = None
        if was != CLOSED:
            obs.event("service.breaker.close", precond=name, was=was)

    def record_failure(self, name: str) -> None:
        if name in UNBREAKABLE:
            return
        with self._lock:
            circuit = self._circuit(name)
            circuit.consecutive_failures += 1
            tripped = (
                circuit.state == HALF_OPEN
                or circuit.consecutive_failures >= self.policy.fail_threshold
            )
            if tripped and circuit.state != OPEN:
                circuit.move(OPEN)
                circuit.opened_at = self.clock()
                circuit.trips += 1
                failures = circuit.consecutive_failures
            else:
                tripped = False
        if tripped:
            obs.event("service.breaker.open", precond=name, failures=failures)

    def state(self, name: str) -> str:
        if name in UNBREAKABLE:
            return CLOSED
        with self._lock:
            return self._circuit(name).state

    def stats(self) -> dict:
        with self._lock:
            return {
                name: {
                    "state": c.state,
                    "consecutive_failures": c.consecutive_failures,
                    "trips": c.trips,
                }
                for name, c in self._circuits.items()
            }
