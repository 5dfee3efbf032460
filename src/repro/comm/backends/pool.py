"""Resident rank worlds: started multiprocess backends kept for reuse.

A ``solve_case(backend="multiprocess")`` used to fork its ranks, ship them
their blocks and factors, and shut them down again, every call.  Here each
process keeps **at most one idle world per rank count**: a communicator's
``close()`` hands its world back (:func:`release`) and the next
communicator of that size leases it (:func:`lease`), ranks, resident state,
arenas and seq counters included, so a repeated solve spawns, ships and
probes nothing.

The rules that make reuse safe:

* **leases are exclusive** — a leased world is out of the pool, so two
  threads solving at the same size at once get two worlds; a new world is
  built (its ranks start later, lazily) outside the pool lock;
* **a damaged world is never pooled** — one with a dead, suspect or fenced
  rank, one whose round gave up, and one used while a fault plan was active
  are shut down at release, and a world is never leased from the pool
  while a plan is active (a chaos run starts from fresh ranks);
* **forks drop idle worlds** — a child process forgets the pool without
  touching the parent's ranks (:meth:`MultiprocessBackend.abandon`).
"""

from __future__ import annotations

import atexit
import os
import threading

from repro import obs
from repro.comm.backends.multiprocess import MultiprocessBackend

_lock = threading.Lock()
_idle: dict[int, MultiprocessBackend] = {}


def _plan_active() -> bool:
    from repro import faults  # deferred: faults imports the comm layer

    return faults.active() is not None


def lease(size: int) -> MultiprocessBackend:
    """A world of ``size`` ranks for one communicator, the idle one if any."""
    if _plan_active():
        world = MultiprocessBackend(size)
        world.damaged = True
        return world
    with _lock:
        world = _idle.pop(size, None)
    if world is not None:
        if world.reusable():
            obs.event("comm.backend.reused", backend=world.name, ranks=size)
            return world
        world.shutdown()
    return MultiprocessBackend(size)


def release(world: MultiprocessBackend) -> None:
    """Take a world back from a closing communicator: keep it idle if it
    may be reused and its size has no idle world yet, else shut it down."""
    if _plan_active():
        world.damaged = True
    if world.reusable():
        with _lock:
            if world.size not in _idle:
                _idle[world.size] = world
                return
    world.shutdown()


def idle_sizes() -> list[int]:
    """The rank counts that have an idle world (diagnostics and tests)."""
    with _lock:
        return sorted(_idle)


def drain() -> None:
    """Shut down every idle world."""
    global _idle
    with _lock:
        worlds, _idle = _idle, {}
    for size in sorted(worlds):
        worlds[size].shutdown()


def _forget_in_child() -> None:
    global _lock, _idle
    _lock = threading.Lock()  # another thread of the parent may have held it
    worlds, _idle = _idle, {}
    for size in sorted(worlds):
        worlds[size].abandon()


os.register_at_fork(after_in_child=_forget_in_child)
atexit.register(drain)  # ranks stop on SHUTDOWN, before multiprocessing's reaper
