"""Content-addressed cache for incomplete factorizations.

Setup cost dominates the solvers' retry paths: the resilience fallback
chain re-preconditions the same operator after a fault, transient stepping
rebuilds identical subdomain factors after checkpoint restore, and
benchmark sweeps factor the same blocks across configurations.  This cache
keys each factorization by a SHA-256 digest of the *content* that
determines the result — algorithm, parameters, matrix shape, CSR structure
and values, and the kernel-tier family — so any byte-identical request
returns the stored :class:`~repro.factor.base.ILUFactorization` object
without re-eliminating.

Design points:

* ``breakdown_frac`` is deliberately **excluded** from the key: it does not
  change the computed factors, only whether they are accepted.  Callers
  re-run the breakdown test against the cached ``floored_pivots`` count, so
  a hit behaves exactly like a recomputation.
* Factorizations are returned by reference (they are treated as immutable
  throughout the library).
* Any active fault plan bypasses the cache entirely — injected faults are
  non-deterministic with respect to matrix content, and hooks must fire.
* Bounded LRU (default 32 entries) and thread-safe: the solve service's
  worker threads run their set-ups concurrently on this one cache.
* Disable per process with ``REPRO_FACTOR_CACHE=0`` (or ``off``/``false``),
  per call site with :func:`configure`, or per CLI run with
  ``--no-factor-cache``.

Hit/miss/bypass counts are kept as module counters (:func:`stats`) and also
emitted as ``factor.cache`` events through :mod:`repro.obs` when tracing is
enabled.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.analysis.sanitize.race import TrackedLock, race_access

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base -> triangular)
    from repro.factor.base import ILUFactorization

_DEFAULT_CAPACITY = 32
_ENV_VAR = "REPRO_FACTOR_CACHE"


def _env_disabled() -> bool:
    return os.environ.get(_ENV_VAR, "").strip().lower() in ("0", "off", "false", "no")


class FactorCache:
    """Thread-safe bounded LRU of content-addressed factorizations."""

    def __init__(self, capacity: int = _DEFAULT_CAPACITY, enabled: bool | None = None):
        self._lock = TrackedLock(f"factor.cache.{id(self)}.lock")
        self._store: OrderedDict[str, "ILUFactorization"] = OrderedDict()
        self.capacity = capacity
        self.enabled = (not _env_disabled()) if enabled is None else enabled
        self.hits = 0
        self.misses = 0
        self.bypasses = 0

    # -- keying ----------------------------------------------------------
    @staticmethod
    def key(alg: str, a: sp.csr_matrix, params: tuple, family: str) -> str:
        """Digest of everything that determines the factorization result."""
        h = hashlib.sha256()
        h.update(f"{alg}|{family}|{params!r}|{a.shape[0]}x{a.shape[1]}|".encode())
        h.update(np.ascontiguousarray(a.indptr))
        h.update(np.ascontiguousarray(a.indices))
        h.update(np.ascontiguousarray(a.data))
        return h.hexdigest()

    # -- lookup / insert -------------------------------------------------
    def get(self, key: str, alg: str) -> "ILUFactorization | None":
        with self._lock:
            fac = self._store.get(key)
            if fac is not None:
                race_access(f"factor.cache.{id(self)}.store", "write")
                self._store.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
        obs.event(
            "factor.cache", alg=alg,
            outcome="hit" if fac is not None else "miss", key=key[:12],
        )
        return fac

    def put(self, key: str, fac: "ILUFactorization") -> None:
        with self._lock:
            self._put_locked(key, fac)

    def _put_locked(self, key: str, fac: "ILUFactorization") -> None:
        """Store mutation proper; callers must hold ``self._lock``.

        The race sanitizer checks exactly that: every cross-thread write to
        the store must share the cache's lock in its lockset.
        """
        race_access(f"factor.cache.{id(self)}.store", "write")
        self._store[key] = fac
        self._store.move_to_end(key)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)

    def note_bypass(self, alg: str, reason: str) -> None:
        with self._lock:
            self.bypasses += 1
        obs.event("factor.cache", alg=alg, outcome="bypass", reason=reason)

    # -- management ------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self._store.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = self.misses = self.bypasses = 0

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "capacity": self.capacity,
                "size": len(self._store),
                "hits": self.hits,
                "misses": self.misses,
                "bypasses": self.bypasses,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)


_cache = FactorCache()


def get_cache() -> FactorCache:
    """The process-wide factor cache."""
    return _cache


def configure(enabled: bool | None = None, capacity: int | None = None) -> FactorCache:
    """Adjust the process-wide cache; returns it for chaining."""
    if enabled is not None:
        _cache.enabled = enabled
        if not enabled:
            _cache.clear()
    if capacity is not None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        _cache.capacity = capacity
        with _cache._lock:
            while len(_cache._store) > capacity:
                _cache._store.popitem(last=False)
    return _cache


def stats() -> dict[str, Any]:
    """Counters of the process-wide cache (hits/misses/bypasses/size)."""
    return _cache.stats()
