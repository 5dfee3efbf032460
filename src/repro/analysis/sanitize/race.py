"""Lightweight race detector for the shared setup-phase state.

Set-ups run concurrently wherever solves do: every solve-service worker
thread factors its job's subdomain blocks while sharing the
content-addressed factor cache and (when tracing) the span tracer.  This
module is the Eraser-style guard that keeps those shared structures honest:
instrumented code reports each access together with the locks its thread
holds, and the detector maintains the classic ownership / lockset state
machine per resource:

* **exclusive** — only the creating thread has touched the resource; any
  single-threaded pattern is silently fine;
* **shared** — a second thread touched it; the *candidate lockset* is the
  intersection of the lock sets held at every shared access;
* a **write** in the shared state with an empty candidate lockset is an
  unsynchronized cross-thread mutation: recorded, traced as a
  ``sanitize.race`` event, and (by default) raised as :class:`RaceDetected`.

Instrumentation points (see docs/static-analysis.md):

* :class:`repro.factor.cache.FactorCache` — store mutations report
  ``factor.cache.store`` under its :class:`TrackedLock`;
* :class:`repro.obs.tracer.Tracer` — span enter/exit report per-tracer
  resources (tracers are single-owner by design; a second thread recording
  spans without synchronization is exactly the bug this catches).

Everything is a no-op unless armed (``REPRO_SANITIZE=race`` or
:func:`arm_race`): unarmed cost is one module-flag read per access.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

_armed: bool = False
_tls = threading.local()


def _obs_event(name: str, **attrs: object) -> None:
    # deferred import: obs.tracer imports this module, so importing obs at
    # module load would close an import cycle
    from repro import obs

    obs.event(name, **attrs)


class RaceDetected(RuntimeError):
    """An unsynchronized cross-thread mutation of a monitored resource.

    Deliberately *not* a :class:`~repro.resilience.errors.SolverFault`: a
    race is a program bug, not a recoverable numerical event — the
    resilience retry chain must not swallow it.
    """

    def __init__(self, message: str, **context) -> None:
        super().__init__(message)
        self.context = context


def _held() -> set[str]:
    held = getattr(_tls, "held", None)
    if held is None:
        held = _tls.held = set()
    return held


@contextmanager
def holding(lock_name: str) -> Iterator[None]:
    """Declare that the current thread holds ``lock_name`` for the block.

    Code synchronizing through means the detector cannot see (an external
    queue, an ordering protocol) uses this to vouch for its accesses.
    """
    held = _held()
    added = lock_name not in held
    if added:
        held.add(lock_name)
    try:
        yield
    finally:
        if added:
            held.discard(lock_name)


class TrackedLock:
    """A ``threading.Lock`` that registers itself with the race detector.

    Drop-in for the plain lock (``acquire``/``release``/``locked``/context
    manager); when the detector is armed, the holding thread's lock set
    includes ``name`` between acquire and release.
    """

    __slots__ = ("name", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._lock.acquire(blocking, timeout)
        if ok and _armed:
            _held().add(self.name)
        return ok

    def release(self) -> None:
        _held().discard(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class _ResourceState:
    __slots__ = ("owner", "shared", "modified", "lockset")

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self.shared = False
        self.modified = False
        self.lockset: set[str] | None = None


class RaceDetector:
    """Ownership/lockset tracker over named resources."""

    def __init__(self, raise_on_race: bool = True) -> None:
        self.raise_on_race = raise_on_race
        self.reports: list[dict] = []
        self._states: dict[str, _ResourceState] = {}
        self._mu = threading.Lock()

    def access(self, resource: str, kind: str = "write") -> None:
        """Report one access; ``kind`` is ``"read"`` or ``"write"``."""
        tid = threading.get_ident()
        held = _held()
        report = None
        with self._mu:
            st = self._states.get(resource)
            if st is None:
                self._states[resource] = _ResourceState(tid)
                return
            if not st.shared:
                if st.owner == tid:
                    return  # still thread-exclusive
                st.shared = True
                st.lockset = set(held)
            else:
                assert st.lockset is not None
                st.lockset &= held
            if kind == "write":
                st.modified = True
            if st.modified and not st.lockset:
                report = {
                    "resource": resource,
                    "kind": kind,
                    "thread": tid,
                    "owner": st.owner,
                    "held": sorted(held),
                }
                self.reports.append(report)
        if report is not None:
            _obs_event("sanitize.race", **report)
            if self.raise_on_race:
                raise RaceDetected(
                    f"unsynchronized cross-thread {kind} of {resource} "
                    f"(thread {tid}, no common lock held)",
                    **report,
                )

    def forget(self, resource: str) -> None:
        """Drop tracked state (e.g. when the owning object is reset)."""
        with self._mu:
            self._states.pop(resource, None)


_detector = RaceDetector()


def arm_race(on: bool = True) -> None:
    """Arm/disarm race detection; arming starts from a clean detector."""
    global _armed, _detector
    if on:
        _detector = RaceDetector()
    _armed = on


def race_armed() -> bool:
    return _armed


def get_detector() -> RaceDetector:
    """The active detector (its ``reports`` list survives disarming)."""
    return _detector


def race_access(resource: str, kind: str = "write") -> None:
    """Instrumentation hook: report an access when the detector is armed."""
    if _armed:
        _detector.access(resource, kind)
