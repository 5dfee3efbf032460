"""The seam where subdomain set-up and local solves run.

Every preconditioner of the paper factors one independent block per
subdomain and then solves with it.  *Where* is decided here, once per
preconditioner, from the communicator — never by a caller or a user:

* **driver** — in the calling thread (simulated ranks): set-up one
  block after another in rank order; the solves *fused* — the idiom of
  :class:`~repro.distributed.matrix.DistributedMatrix`, fused execution at
  full distributed cost.  The ranks' factors are one block-diagonal pair of
  triangles, so one compiled sweep serves all ranks with the bits of the
  per-rank loop, and the caller charges the per-rank flops;
* **worker** — inside the rank processes of a real backend
  (:func:`repro.comm.compute.session`): every rank eliminates and sweeps
  its own block, concurrently, with no shared interpreter.  Set-up under an
  active fault plan still runs on the driver: pivot hooks must fire in the
  injecting process.

There is **one ship path**.  Set-up is "factor cache hit, else
``LOAD_MATRIX`` + ``FACTOR`` in the ranks"; a factor that is not resident in
the rank that needs it — a cache hit, a driver-side set-up, a fresh
communicator after ``absorb_rank`` recovery — is shipped by content key at
the next :meth:`LocalSolver.solve`, and only there.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro import faults
from repro.comm import compute as worker_compute
from repro.comm.communicator import Communicator
from repro.distributed.layout import Layout
from repro.factor import cache as factor_cache
from repro.factor.base import ILUFactorization
from repro.factor.ilu0 import _check_breakdown, ilu0
from repro.factor.ilut import ilut
from repro.sparse.triangular import FusedLU


def _factor(
    alg: str, a: sp.csr_matrix, params: tuple, breakdown_frac: float | None
) -> ILUFactorization:
    if alg == "ilu0":
        (shift,) = params
        return ilu0(a, shift=shift, breakdown_frac=breakdown_frac)
    drop_tol, fill, shift = params
    return ilut(a, drop_tol, fill, shift=shift, breakdown_frac=breakdown_frac)


class LocalSolver:
    """"Factor my blocks" and "solve with my factors" for one communicator.

    ``matrices[r]`` is rank r's square block, already in the order it is to
    be factored in; ``perms[r]`` is that order (``None`` = natural) and is
    undone by :meth:`solve`.  ``alg``/``params`` are ``"ilu0"``/``(shift,)``
    or ``"ilut"``/``(drop_tol, fill, shift)``.

    ``factors`` holds the driver's copy of every factorization, ``keys``
    maps rank to its content digest (what the rank stores it under) and
    ``where`` says where set-up ran: ``"driver"`` or ``"worker"``.
    """

    def __init__(
        self,
        comm: Communicator,
        matrices: Sequence[sp.csr_matrix],
        perms: Sequence[np.ndarray | None],
        alg: str,
        params: tuple,
        breakdown_frac: float | None,
    ) -> None:
        self.perms = list(perms)
        # "worker" family: the factors a key names are transport-independent
        # by the bitwise contract (the same kernel runs on either side)
        self.keys = {
            r: factor_cache.FactorCache.key(alg, a, params, "worker")
            for r, a in enumerate(matrices)
        }
        self._session = worker_compute.session(comm)
        # the driver route's rank-stacked sweep, built at the first solve
        self._fused: FusedLU | None = None
        self._perm: np.ndarray | None = None
        in_ranks = self._session is not None and faults.active() is None
        self.where = "worker" if in_ranks else "driver"
        if in_ranks:
            self.factors = self._factor_in_ranks(matrices, alg, params, breakdown_frac)
        else:
            self.factors = [_factor(alg, a, params, breakdown_frac) for a in matrices]

    def _factor_in_ranks(
        self, matrices, alg: str, params: tuple, breakdown_frac: float | None
    ) -> list[ILUFactorization]:
        """Cache hit, else one LOAD_MATRIX round and one FACTOR round.

        All eliminations of the FACTOR round run concurrently in the rank
        processes; each result comes back over the pipe and is rebuilt here,
        bitwise identical to a driver-side factorization (same kernel code
        on the same input bytes), and cached under its content key.
        """
        cache = factor_cache.get_cache()
        shift = params[-1]
        factors: dict[int, ILUFactorization] = {}
        load: dict[int, tuple[str, bytes]] = {}
        todo: dict[int, dict] = {}
        for r, a in enumerate(matrices):
            cached = cache.get(self.keys[r], alg) if cache.enabled else None
            if cached is not None:
                _check_breakdown(
                    alg, cached.stats.floored_pivots, cached.n, breakdown_frac, shift
                )
                factors[r] = cached
                continue
            mkey = factor_cache.FactorCache.key(alg, a, params, "worker-matrix")
            load[r] = worker_compute.load_matrix(mkey, a)
            todo[r] = {
                "alg": alg, "matrix_key": mkey, "factor_key": self.keys[r],
                "shift": shift, "breakdown_frac": breakdown_frac,
            }
            if alg == "ilut":
                todo[r]["drop_tol"], todo[r]["fill"] = params[:2]
        if todo:
            out = self._session.factor(
                todo, {r: self.perms[r] for r in todo if self.perms[r] is not None},
                load,
            )
            for r in sorted(out):
                factors[r], _ = ILUFactorization.from_wire(*out[r])
                if cache.enabled:
                    cache.put(self.keys[r], factors[r])
        return [factors[r] for r in range(len(matrices))]

    def _stack(self, layout: Layout) -> None:
        """All ranks' factors as one fused pair — remembered beside cached
        factors, probe verdict included — and (RCM) the orders they were
        built in as one permutation of the distributed vector."""
        self._fused = factor_cache.get_cache().remember(
            self.factors, ("local.fused",),
            lambda: FusedLU.stacked([f.L for f in self.factors], [f.U for f in self.factors]),
        )
        if any(p is not None for p in self.perms):
            self._perm = np.concatenate([
                lo + (np.arange(f.n) if p is None else p)
                for lo, f, p in zip(layout.rank_ptr, self.factors, self.perms)
            ])

    def sweep(self, layout: Layout, r: np.ndarray) -> np.ndarray:
        """The driver route of :meth:`solve`: one sweep over the stacked
        triangles, whatever the backend (Block K's inner GMRES sweeps here,
        so it ships no factor)."""
        if self._fused is None:
            self._stack(layout)
        if self._perm is None:
            return self._fused.solve(r)
        z = np.empty_like(r)
        z[self._perm] = self._fused.solve(r[self._perm])
        return z

    def solve(self, layout: Layout, r: np.ndarray) -> np.ndarray:
        """``z_r = (L_r U_r)^{-1} r_r`` on every rank's slice of ``layout``.

        On the driver all ranks solve in one sweep over the stacked
        triangles; in the ranks each runs
        :func:`~repro.factor.base.solve_permuted` on its resident factor.
        Either way the assembled z is bitwise equal to solving rank by rank.
        """
        session = self._session
        if session is None:
            return self.sweep(layout, r)
        # shipping is a no-op on the steady path: after set-up in the
        # ranks, after the first solve, or on a world an earlier solve left
        # them in, every (rank, key) is in the world's shipped set
        return session.apply_factors(
            self.keys, layout, r,
            lambda rank: worker_compute.load_factor(
                self.keys[rank], self.factors[rank], self.perms[rank]),
        )
