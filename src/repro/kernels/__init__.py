"""Kernel tier dispatch for the factorization and apply kernels.

One tier policy covers both phases: the setup-phase eliminations and the
apply-phase triangular sweeps/matvec dispatched by
:mod:`repro.kernels.apply` (which consults the same forced tier, so one
:func:`forced_tier` pins the whole solve).

Every operation has the reference path plus one fast path:

* ``"reference"`` — the interpreted scalar kernels: the dict/heap
  factorizations in :mod:`repro.factor.reference` and the apply loops in
  :mod:`repro.kernels.applyspec`.  They are the spec the fast path is held
  to, MILU's dropped mass and the fault-injection pivot hooks included.
* ``"numpy"`` — the array kernels: the index-set window ILUT sweep
  (:mod:`repro.kernels.band`), the update-triple ILU(0) sweep
  (:mod:`repro.kernels.triples`) and the compiled apply kernels
  (:mod:`repro.kernels.apply`).  Their factors are byte-identical to the
  reference's, under MILU and live pivot-fault plans too.

Under ``"auto"`` policy every operation takes its fast path.  One input
sends a factorization to the reference kernel whatever is forced: an ILUT
whose best window, the band bordered by the interface rows and columns
(:func:`band.window`), is over ``BAND_MEM_CAP``.  Otherwise only a forced
``"reference"`` tier does.  Override with :func:`set_tier`/:func:`forced_tier`
(``"auto"`` | ``"reference"`` | ``"numpy"``); ``check-determinism --tiers``
forces each tier in turn, and a forced tier bypasses the factor cache.
"""

from __future__ import annotations

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
]

_TIERS = ("reference", "numpy")

# safety cap on the ILUT window, O(n * (bandwidth + border)): each
# solve-service worker process factors one block at a time, so a service
# holds one window per worker process
BAND_MEM_CAP = 32 * 2**20

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
    return _forced


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

