"""The compute lane: in-process arithmetic runs one chunk at a time.

Two threads computing in one interpreter trade the GIL, they do not share two
cores (docs/performance.md §10); ``run_job`` holds the lane around the one
call of a chunk that computes in this interpreter, and around nothing else.
"""

from __future__ import annotations

import threading
import time


class ComputeLane:
    """A first-come-first-served mutex whose waits are bounded slices."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._line: list[object] = []  # waiters, in arrival order
        self._since: float | None = None  # when it was taken; None = free
        self._stats = dict(acquisitions=0, waited=0, wait_s=0.0, held_s=0.0)

    def acquire(self, poll_s: float, give_up) -> tuple[bool, float]:
        """``(held, seconds waited)``.  ``give_up()`` is re-checked every
        ``poll_s`` slice and on arrival; once it is true nothing is held."""
        me, t0, held, slices = object(), time.monotonic(), False, 0
        with self._cond:
            self._line.append(me)
            try:
                while not give_up():
                    if self._since is None and self._line[0] is me:
                        held = True
                        break
                    slices += 1
                    self._cond.wait(timeout=poll_s)
            finally:
                self._line.remove(me)
                if not held:  # a head that left lets the next one in
                    self._cond.notify_all()
            now = time.monotonic()
            self._since = now if held else self._since
            self._stats["acquisitions"] += held
            self._stats["waited"] += slices > 0
            self._stats["wait_s"] += now - t0
            return held, now - t0

    def release(self) -> None:
        with self._cond:
            self._stats["held_s"] += time.monotonic() - self._since
            self._since = None
            self._cond.notify_all()

    def stats(self) -> dict:
        with self._cond:
            return dict(self._stats)


#: one per interpreter, because the GIL is: every SolveService shares it
PROCESS_LANE = ComputeLane()
