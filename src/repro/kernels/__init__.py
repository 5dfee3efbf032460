"""Kernel tier dispatch for the factorization and apply kernels.

One tier policy covers both phases: the setup-phase elimination sweeps
dispatched below and the apply-phase triangular sweeps/matvec dispatched
by :mod:`repro.kernels.apply` (which consults the same forced/env state,
so a single ``REPRO_KERNEL_TIER`` pins the whole solve).

Every operation has the reference path plus at most one fast path:

* ``"reference"`` — the interpreted scalar kernels: the dict/heap
  factorizations in :mod:`repro.factor.reference` and the apply loops in
  :mod:`repro.kernels.applyspec`.  Always available; the only ILU(0), and
  the only tier that supports MILU's dropped-mass accumulation and
  fault-injection pivot hooks, so those cases are routed here
  unconditionally.
* ``"numpy"`` — the vectorized band-window ILUT sweep
  (:mod:`repro.kernels.band`) and the compiled apply kernels
  (:mod:`repro.kernels.apply`).

Under ``"auto"`` policy the code picks per operation: ILUT takes the band
sweep when its dense workspace is economical for the matrix at hand (only
worth it for moderate bandwidths), the apply phase always takes the
compiled kernels.  Override with :func:`set_tier`/:func:`forced_tier` or
the ``REPRO_KERNEL_TIER`` environment variable (``auto`` | ``reference`` |
``numpy``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from . import apply, applyspec, band, rowspec

__all__ = [
    "band",
    "rowspec",
    "apply",
    "applyspec",
    "available_tiers",
    "get_tier",
    "set_tier",
    "forced_tier",
    "band_economical",
    "resolve",
]

_TIERS = ("reference", "numpy")
_ENV_VAR = "REPRO_KERNEL_TIER"

# the band workspace is O(n * bandwidth): cap both the bandwidth (per-row
# ufunc cost grows as bw^2) and the total workspace footprint
BAND_BW_CAP = 150
BAND_MEM_CAP = 128 * 2**20

_forced: str | None = None


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
    if _forced is not None:
        return _forced
    return _checked(os.environ.get(_ENV_VAR, "").strip().lower() or None)


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


def _band_fits(n: int, bw: int) -> bool:
    # the window itself plus as much again in headroom (sweep scratch,
    # extraction index arrays)
    return 2 * (n + bw + 1) * (2 * bw + 1) * 8 <= BAND_MEM_CAP


def band_economical(n: int, bw: int) -> bool:
    """Whether the dense band workspace pays off for an n x n matrix."""
    return bw <= BAND_BW_CAP and _band_fits(n, bw)


def resolve(n: int, bw: int, *, require_reference: bool = False) -> str:
    """Pick the ILUT tier for one factorization.

    ``require_reference`` is set by the factor layer when semantics demand
    the scalar kernels (active fault plans); it wins over any forced policy
    so fault hooks are never silently skipped.  Forcing ``"numpy"``
    overrides the bandwidth *economy* cap, never the ``BAND_MEM_CAP``
    *safety* cap: a window that large is a dense ``O(n * bw)`` allocation.
    """
    forced = get_tier()
    if require_reference or forced == "reference":
        return "reference"
    worth_it = _band_fits if forced == "numpy" else band_economical
    return "numpy" if worth_it(n, bw) else "reference"
