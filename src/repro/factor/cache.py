"""Content-addressed cache for incomplete factorizations.

Setup cost dominates the solvers' retry paths: the resilience fallback
chain re-preconditions the same operator after a fault, transient stepping
rebuilds identical subdomain factors after checkpoint restore, and
benchmark sweeps factor the same blocks across configurations.  This cache
keys each factorization by a SHA-256 digest of the *content* that
determines the result — algorithm, parameters, matrix shape, CSR structure
and values — so any byte-identical request returns the stored
:class:`~repro.factor.base.ILUFactorization` object without re-eliminating.
Every kernel computes the same bytes, so the key does not name one.

Design points:

* ``breakdown_frac`` is deliberately **excluded** from the key: it does not
  change the computed factors, only whether they are accepted.  Callers
  re-run the breakdown test against the cached ``floored_pivots`` count, so
  a hit behaves exactly like a recomputation.
* Factorizations are returned by reference (they are treated as immutable
  throughout the library).
* A live pivot-fault plan bypasses the cache entirely — injected faults
  are not a function of matrix content, and hooks must fire.  So does a
  forced kernel tier, so that a cross-tier comparison never compares a
  factor with itself.
* Bounded LRU (default 32 entries) and thread-safe: the solve service's
  worker threads run their set-ups concurrently on this one cache.
* Disable per call site with :func:`configure`, or per CLI run with
  ``--no-factor-cache``.

What is built *from* cached factors — Schur blocks, rank stacks — is
remembered beside them (:meth:`FactorCache.remember`), so a warm set-up
reuses the stack and the gstrs slots its sweeps already built.  The memo
lives and dies with its factors: keyed by their content keys plus whatever
else determines the build (split points), dropped with any one of them
(eviction, :meth:`~FactorCache.clear`, ``configure(enabled=False)``), and
never consulted for a factor the cache does not hold.

Hit/miss/bypass counts (and ``stack_hits``/``stack_misses`` for the memo)
are kept as module counters (:func:`stats`) and also emitted as
``factor.cache`` events through :mod:`repro.obs` when tracing is enabled
(``alg="stack"`` for the memo).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Sequence, TypeVar

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.analysis.sanitize.race import TrackedLock, race_access

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base -> triangular)
    from repro.factor.base import ILUFactorization

T = TypeVar("T")

_DEFAULT_CAPACITY = 32


class FactorCache:
    """Thread-safe bounded LRU of content-addressed factorizations."""

    def __init__(self, capacity: int = _DEFAULT_CAPACITY, enabled: bool = True):
        self._lock = TrackedLock(f"factor.cache.{id(self)}.lock")
        self._store: OrderedDict[str, "ILUFactorization"] = OrderedDict()
        # the content key of each stored factor object, and what is built
        # from stored factors: (tag, their keys) -> the build
        self._key_of: dict[int, str] = {}
        self._derived: dict[tuple[tuple, tuple[str, ...]], Any] = {}
        self.capacity = capacity
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.stack_hits = 0
        self.stack_misses = 0

    # -- keying ----------------------------------------------------------
    @staticmethod
    def key(alg: str, a: sp.csr_matrix, params: tuple) -> str:
        """Digest of everything that determines the factorization result."""
        h = hashlib.sha256()
        h.update(f"{alg}|{params!r}|{a.shape[0]}x{a.shape[1]}|".encode())
        h.update(np.ascontiguousarray(a.indptr))
        h.update(np.ascontiguousarray(a.indices))
        h.update(np.ascontiguousarray(a.data))
        return h.hexdigest()

    # -- lookup / insert -------------------------------------------------
    def lookup(
        self, alg: str, a: sp.csr_matrix, params: tuple, bypass: str | None
    ) -> tuple[str | None, "ILUFactorization | None"]:
        """``(key, cached factor)`` of one factorization: ``(None, None)``
        when the cache is off, or when ``bypass`` names why this one must be
        neither served nor stored (counted as a bypass)."""
        if not self.enabled:
            return None, None
        if bypass is not None:
            with self._lock:
                self.bypasses += 1
            obs.event("factor.cache", alg=alg, outcome="bypass", reason=bypass)
            return None, None
        key = self.key(alg, a, params)
        return key, self.get(key, alg)

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
        old = self._store.get(key)
        if old is not None:
            # same content, new object: what was built from the old one stays
            del self._key_of[id(old)]
        self._store[key] = fac
        self._store.move_to_end(key)
        self._key_of[id(fac)] = key
        self._trim_locked()

    def _trim_locked(self) -> None:
        """Evict down to capacity, and with each factor what was built from it."""
        while len(self._store) > self.capacity:
            key, fac = self._store.popitem(last=False)
            del self._key_of[id(fac)]
            for dk in [dk for dk in self._derived if key in dk[1]]:
                race_access(f"factor.cache.{id(self)}.memo", "write")
                del self._derived[dk]

    def _resident_keys(self, factors: Sequence["ILUFactorization"]) -> tuple[str, ...] | None:
        """The content keys of ``factors`` if the cache holds every one of
        these very objects, else ``None``; callers hold ``self._lock``.
        (``_key_of`` has an entry exactly while its object is stored.)"""
        keys = []
        for fac in factors:
            key = self._key_of.get(id(fac))
            if key is None:
                return None
            keys.append(key)
        return tuple(keys)

    def remember(
        self, factors: Sequence["ILUFactorization"], tag: tuple, build: Callable[[], T]
    ) -> T:
        """``build()``, remembered beside the cached ``factors`` it is built from.

        ``tag`` names what ``build`` makes from the factors and whatever
        else it depends on (split points).  While the cache holds every one
        of these factor objects, the first build is kept and returned to
        every later caller — with whatever state it has since built, such
        as a stack's gstrs slots.  Two threads that build at once both
        get the one that was stored first.  A factor the cache does not hold
        (cache disabled, fault-plan bypass, evicted, replaced) gets a fresh,
        unremembered build.
        """
        value: Any = None
        with self._lock:
            keys = self._resident_keys(factors)
            if keys is not None:
                value = self._derived.get((tag, keys))
                race_access(f"factor.cache.{id(self)}.memo", "write")
                if value is None:
                    self.stack_misses += 1
                else:
                    self.stack_hits += 1
        if keys is None:
            return build()
        obs.event(
            "factor.cache", alg="stack", what=tag[0],
            outcome="hit" if value is not None else "miss", key=keys[0][:12],
        )
        if value is not None:
            return value
        value = build()
        with self._lock:
            if self._resident_keys(factors) == keys:
                race_access(f"factor.cache.{id(self)}.memo", "write")
                value = self._derived.setdefault((tag, keys), value)
        return value

    # -- management ------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            race_access(f"factor.cache.{id(self)}.memo", "write")
            self._store.clear()
            self._key_of.clear()
            self._derived.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = self.misses = self.bypasses = 0
            self.stack_hits = self.stack_misses = 0

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "capacity": self.capacity,
                "size": len(self._store),
                "hits": self.hits,
                "misses": self.misses,
                "bypasses": self.bypasses,
                "stacks": len(self._derived),
                "stack_hits": self.stack_hits,
                "stack_misses": self.stack_misses,
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
        with _cache._lock:
            _cache.capacity = capacity
            _cache._trim_locked()
    return _cache


def stats() -> dict[str, Any]:
    """Counters of the process-wide cache (hits/misses/bypasses/size, and
    stacks/stack_hits/stack_misses of the memo beside the factors)."""
    return _cache.stats()
