"""Execution backends: how ranks run and how envelope bytes move.

``resolve_backend`` is the single construction point, and
``resolve_backend_name`` its one selection rule: explicit request beats the
``REPRO_COMM_BACKEND`` environment override beats the ``inprocess``
default.  See ``docs/robustness.md`` ("Execution backends
and the rank lifecycle") for the full story.
"""

from __future__ import annotations

import os

from repro.comm.backends.base import (
    BACKEND_ENV,
    BACKEND_NAMES,
    ExecutionBackend,
    TransportBroken,
    TransportTimeout,
)
from repro.comm.backends.framing import Frame, decode_frame, encode_frame
from repro.comm.backends.inprocess import InProcessBackend
from repro.comm.backends import pool
from repro.comm.backends.multiprocess import MultiprocessBackend
from repro.comm.backends.supervisor import (
    DEAD,
    READY,
    SPAWNED,
    SUSPECT,
    HeartbeatPolicy,
    RankRecord,
    RankSupervisor,
)

__all__ = [
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "DEAD",
    "READY",
    "SPAWNED",
    "SUSPECT",
    "ExecutionBackend",
    "Frame",
    "HeartbeatPolicy",
    "InProcessBackend",
    "MultiprocessBackend",
    "RankRecord",
    "RankSupervisor",
    "TransportBroken",
    "TransportTimeout",
    "decode_frame",
    "encode_frame",
    "make_backend",
    "release_backend",
    "resolve_backend",
    "resolve_backend_name",
]


def make_backend(name: str, size: int) -> ExecutionBackend:
    """Construct a backend by selectable name."""
    if name == "inprocess":
        return InProcessBackend(size)
    if name == "multiprocess":
        return MultiprocessBackend(size)
    raise ValueError(
        f"unknown execution backend {name!r}; pick from {BACKEND_NAMES}"
    )


def resolve_backend_name(name: str | None) -> str:
    """The backend a request selects: ``name``, else the
    :data:`~repro.comm.backends.base.BACKEND_ENV` environment variable, else
    ``inprocess``."""
    if name is None:
        return os.environ.get(BACKEND_ENV) or "inprocess"
    return name


def resolve_backend(
    spec: str | ExecutionBackend | None, size: int
) -> tuple[ExecutionBackend, bool]:
    """Resolve a backend request into ``(backend, owned)``.

    ``spec`` may be a name, a ready-made instance (must match ``size``;
    the caller keeps it, so ``owned`` is False and the communicator leaves
    it alone), or None (see :func:`resolve_backend_name`).  A name gives an
    owned backend, which the communicator hands to :func:`release_backend`
    on close: ``multiprocess`` leases a world from
    :mod:`~repro.comm.backends.pool`, idle ranks and resident state
    included, and ``inprocess`` builds a new loopback.
    """
    if isinstance(spec, ExecutionBackend):
        if spec.size != size:
            raise ValueError(
                f"backend sized for {spec.size} ranks cannot serve {size}"
            )
        return spec, False
    name = resolve_backend_name(spec)
    if name == "multiprocess":
        return pool.lease(size), True
    return make_backend(name, size), True


def release_backend(backend: ExecutionBackend) -> None:
    """Give back a backend :func:`resolve_backend` made: a multiprocess
    world goes back to the pool (or down, if it may not be reused)."""
    if isinstance(backend, MultiprocessBackend):
        pool.release(backend)
    else:
        backend.shutdown()
