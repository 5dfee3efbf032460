"""Kernel tier dispatch for the factorization and apply kernels.

One tier policy covers both phases: the setup-phase eliminations
dispatched below and the apply-phase triangular sweeps/matvec dispatched
by :mod:`repro.kernels.apply` (which consults the same forced/env state,
so a single ``REPRO_KERNEL_TIER`` pins the whole solve).

Every operation has the reference path plus one fast path:

* ``"reference"`` — the interpreted scalar kernels: the dict/heap
  factorizations in :mod:`repro.factor.reference` and the apply loops in
  :mod:`repro.kernels.applyspec`.  Always available, and the only tier that
  supports MILU's dropped-mass accumulation and fault-injection pivot
  hooks, so those cases are routed here unconditionally.
* ``"numpy"`` — the array kernels: the index-set window ILUT sweep
  (:mod:`repro.kernels.band`), the update-triple ILU(0) sweep
  (:mod:`repro.kernels.triples`) and the compiled apply kernels
  (:mod:`repro.kernels.apply`).  Their factors are byte-identical to the
  reference's.

Under ``"auto"`` policy every operation takes its fast path; the one
exception is a factorization whose array workspace would exceed
``BAND_MEM_CAP``, which stays on the reference kernel whatever is forced.
Override with :func:`set_tier`/:func:`forced_tier` or the
``REPRO_KERNEL_TIER`` environment variable (``auto`` | ``reference`` |
``numpy``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from . import apply, applyspec, band, triples

__all__ = [
    "band",
    "triples",
    "apply",
    "applyspec",
    "available_tiers",
    "get_tier",
    "set_tier",
    "forced_tier",
    "resolve",
]

_TIERS = ("reference", "numpy")
_ENV_VAR = "REPRO_KERNEL_TIER"

# safety cap on one factorization's array workspace: the ILUT window is
# O(n * min(n, bandwidth)) and every concurrent set-up (one per solve-service
# worker thread) holds its own
BAND_MEM_CAP = 32 * 2**20

_forced: str | None = None
# the last REPRO_KERNEL_TIER value seen and what it parsed to: every
# triangular solve asks, so the string is parsed once per distinct value
_env_seen: tuple[str, str | None] = ("", None)


def available_tiers() -> tuple[str, ...]:
    """Tiers usable in this process."""
    return _TIERS


def _checked(name: str | None) -> str | None:
    """``name`` as a forced tier: ``None`` for auto, else a member of ``_TIERS``."""
    if name is None or name == "auto":
        return None
    if name not in _TIERS:
        raise ValueError(
            f"unknown kernel tier {name!r}; expected one of {_TIERS} or 'auto'"
        )
    return name


def get_tier() -> str | None:
    """The explicitly forced tier, or ``None`` under auto policy."""
    global _env_seen
    if _forced is not None:
        return _forced
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    if raw != _env_seen[0]:
        _env_seen = (raw, _checked(raw.strip().lower() or None))
    return _env_seen[1]


def set_tier(name: str | None) -> None:
    """Force a tier for all subsequent factorizations (``None`` = auto)."""
    global _forced
    _forced = _checked(name)


@contextmanager
def forced_tier(name: str | None) -> Iterator[None]:
    """Temporarily force a kernel tier (restores the previous policy)."""
    global _forced
    prev = _forced
    set_tier(name)
    try:
        yield
    finally:
        _forced = prev


def resolve(workspace_bytes: int, *, require_reference: bool = False) -> str:
    """Pick the kernel for one factorization from its workspace footprint.

    ``require_reference`` is set by the factor layer when semantics demand
    the scalar kernels (MILU, active pivot fault plans); it wins over any
    forced policy so fault hooks are never silently skipped.  Forcing
    ``"numpy"`` never overrides the ``BAND_MEM_CAP`` *safety* cap: a
    workspace that large is a dense allocation.
    """
    forced = get_tier()
    if require_reference or forced == "reference":
        return "reference"
    return "numpy" if workspace_bytes <= BAND_MEM_CAP else "reference"
