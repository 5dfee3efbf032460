"""Driver-side session for worker-resident subdomain compute.

:mod:`repro.comm.backends.worker` defines what a rank process can execute;
this module is the driver's half: a :class:`WorkerCompute` session bound to
one communicator + real backend that ships each rank its subdomain state
**once** (content-hash keyed, the factor cache's identity) and then drives
the per-iteration hot path — the row-block MATVEC and the triangular-sweep
APPLY — through batched ``CMD`` rounds.  Every real backend gets a session:
its ranks always compute.

A **round** is one delivery round (:func:`repro.comm.delivery.deliver_round`,
``docs/robustness.md`` "The delivery round") with a ``CMD`` edge per
participating rank: all frames hit the pipes before the driver blocks on
the first response, so rank processes overlap their compute, and failures
are retried and classified exactly like a ghost-exchange transfer (every
worker op is idempotent, so a duplicate command re-executes bitwise
identically).  The typed :class:`~repro.resilience.errors.CommFault` an
exhausted budget raises is what lets ``absorb_rank`` +
:class:`ResilientSolver` recover from a rank killed mid-MATVEC; the fresh
communicator's fresh session (:func:`session`) then re-ships the survivors
their re-partitioned subdomains.

Every round fires the active fault plan's ``exchange_begin`` hook (worker
rounds are delivery opportunities like ghost exchanges) and emits one
``comm.worker.round`` event carrying each rank's *worker-measured* wall and
CPU seconds — the raw material for ``repro trace``'s per-rank attribution.

Inner products stay on the driver: their partials are driver-local memory
reads and a pipe round costs a hundred times the BLAS call.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro import faults, obs
from repro.comm.backends import framing
from repro.comm.backends.worker import (
    OP_APPLY,
    OP_FACTOR,
    OP_LOAD_FACTOR,
    OP_LOAD_MATRIX,
    OP_MATVEC,
    OP_NAMES,
    pack_command,
    unpack_command,
)
from repro.comm.communicator import Communicator
from repro.comm.delivery import Delivery, deliver_round
from repro.resilience import errors as _errors

#: per-attempt timeout floors (seconds): retry policies are tuned for
#: microsecond echo traffic; a command that *computes* needs a window
#: matched to the work, or slow-but-healthy ranks would be fenced
HEAVY_FLOOR = 120.0   #: LOAD / FACTOR — ships state or factors a subdomain
LIGHT_FLOOR = 2.0     #: MATVEC / APPLY — per-iteration ops


class WorkerComputeError(RuntimeError):
    """A worker executed a command and reported a failure the driver cannot
    map onto the typed resilience taxonomy."""


def session(comm: Communicator) -> "WorkerCompute | None":
    """The communicator's worker-compute session, or None (simulated ranks).

    Sessions exist exactly on real backends; they are cached on the
    communicator, so every caller in a solve shares one shipped-key set.
    A communicator born from ``absorb_rank`` recovery is a *new* object
    with a *new* backend — its session starts empty and re-ships state on
    first use, which is the whole recovery story.
    """
    if not comm.backend.is_real:
        return None
    wc = getattr(comm, "_worker_compute", None)
    if wc is None or wc.backend is not comm.backend:
        wc = WorkerCompute(comm)
        comm._worker_compute = wc
    return wc


def _raise_worker_error(rank: int, op_name: str, meta: dict):
    """Re-raise a worker-reported failure as its typed counterpart.

    The failure is named after the op the driver *sent*, never after the
    reply's opcode byte.  The wire carries the exception *name*; anything
    in the resilience taxonomy (``FactorizationBreakdown`` from a
    worker-side ILU, say) comes back as that class so retry/fallback logic
    upstream is blind to where the computation ran.
    """
    msg = (
        f"worker rank {rank} failed {op_name}: "
        f"{meta.get('error', 'unknown error')}"
    )
    cls = getattr(_errors, str(meta.get("etype", "")), None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            raise cls(msg)
        except TypeError:  # taxonomy class with required kwargs
            pass
    raise WorkerComputeError(msg)


def load_matrix(key: str, a) -> tuple[str, bytes]:
    """A CSR matrix as the ``(key, payload)`` entry :meth:`WorkerCompute.ensure`
    ships: one ``LOAD_MATRIX`` command storing ``a`` under ``key``."""
    meta = {"key": key, "nrows": int(a.shape[0]), "ncols": int(a.shape[1])}
    return key, pack_command(OP_LOAD_MATRIX, meta, [a.indptr, a.indices, a.data])


def load_factor(key: str, fac, perm: np.ndarray | None) -> tuple[str, bytes]:
    """A factorization, with the order it was built in, as the ``(key,
    payload)`` entry :meth:`WorkerCompute.ensure` ships: one ``LOAD_FACTOR``
    command in :meth:`~repro.factor.base.ILUFactorization.to_wire`'s layout."""
    return key, pack_command(OP_LOAD_FACTOR, *fac.to_wire(key, perm))


class WorkerCompute:
    """One communicator's worker-resident compute session."""

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm
        self.backend = comm.backend
        #: (rank, content-key) pairs confirmed resident in the workers
        self._shipped: set[tuple[int, str]] = set()

    def is_shipped(self, rank: int, key: str) -> bool:
        return (rank, key) in self._shipped

    # -- the round primitive ----------------------------------------------

    def _round(
        self, op: int, payloads: dict[int, bytes], floor: float
    ) -> dict[int, tuple[dict, list]]:
        """One batched command round: a CMD edge per participating rank."""
        comm = self.comm
        op_name = OP_NAMES[op]
        plan = faults.active()
        if plan is not None:
            # a worker round is a delivery opportunity: proc-kill /
            # proc-hang / rank-dead specs fire here exactly as they do at
            # a ghost exchange
            plan.exchange_begin(backend=self.backend)
        t0 = perf_counter()
        comm.comm_stats.messages += len(payloads)
        # commands ride the (rank, rank) self-edge of the envelope seq
        # space — ghost-exchange edges keep their own counters
        out: dict[int, tuple[dict, list]] = {}

        def settle(edge: Delivery) -> None:
            if edge.frame is None:
                return
            # a worker's typed error leaves the round at once
            _, meta, arrays = unpack_command(edge.frame.payload)
            if "error" in meta:
                _raise_worker_error(edge.dst, op_name, meta)
            out[edge.dst] = (meta, arrays)

        deliver_round(
            comm, framing.CMD,
            {rank: (rank, payloads[rank]) for rank in sorted(payloads)},
            floor=floor, settle=settle, op=op_name,
        )
        if obs.enabled():
            ranks = sorted(out)
            obs.event(
                "comm.worker.round", op=op_name, backend=self.backend.name,
                ranks=ranks,
                seconds=[float(out[r][0].get("seconds", 0.0)) for r in ranks],
                cpu_seconds=[
                    float(out[r][0].get("cpu_seconds", 0.0)) for r in ranks
                ],
                driver_seconds=perf_counter() - t0,
                bytes=sum(framing.HEADER_SIZE + len(payloads[r]) for r in ranks),
            )
        return out

    # -- state shipping ----------------------------------------------------

    def ensure(self, entries: dict[int, tuple[str, bytes]]) -> int:
        """Ship what is not yet resident, in one round; returns how many moved.

        ``entries[rank] = (key, payload)`` as :func:`load_matrix` or
        :func:`load_factor` encode it — one kind per call, since a round
        carries one op.
        """
        payloads = {
            rank: payload
            for rank, (key, payload) in sorted(entries.items())
            if (rank, key) not in self._shipped
        }
        if not payloads:
            return 0
        out = self._round(payloads[min(payloads)][0], payloads, HEAVY_FLOOR)
        self._shipped.update((rank, entries[rank][0]) for rank in out)
        return len(out)

    def factor(
        self, payload_meta: dict[int, dict], perms: dict[int, np.ndarray]
    ) -> dict[int, tuple[dict, list]]:
        """Run ``OP_FACTOR`` on every rank's resident matrix, in one round.

        ``payload_meta[rank]`` is the FACTOR meta (alg/params/matrix_key/
        factor_key); ``perms[rank]`` (optional per rank) is the RCM
        permutation the worker must keep with the factor for APPLY.
        Returns the raw per-rank ``(meta, arrays)`` for
        :meth:`~repro.factor.base.ILUFactorization.from_wire` to rebuild
        driver-side factorizations that are bitwise identical to a local
        factorization.
        """
        payloads = {}
        for rank in sorted(payload_meta):
            meta = dict(payload_meta[rank])
            perm = perms.get(rank)
            arrays = []
            if perm is not None:
                meta["has_perm"] = True
                arrays = [np.asarray(perm, dtype=np.int64)]
            payloads[rank] = pack_command(OP_FACTOR, meta, arrays)
        out = self._round(OP_FACTOR, payloads, HEAVY_FLOOR)
        for rank in out:
            self._shipped.add((rank, payload_meta[rank]["factor_key"]))
        return out

    # -- per-iteration ops -------------------------------------------------

    def matvec(self, dmat, x: np.ndarray) -> np.ndarray:
        """Distributed matvec on the workers; bitwise equal to the fused one.

        Each rank holds a column-compacted row block of the fused operator
        (per-row storage order preserved, so per-row accumulation order —
        and every result bit — matches the driver's single fused product)
        and receives its compacted input slice ``x[cols]``.
        """
        blocks = [dmat.rank_block(rank) for rank in range(self.comm.size)]
        # encode only what is missing: this runs every iteration
        self.ensure({
            rank: load_matrix(blk.key, blk.a)
            for rank, blk in enumerate(blocks)
            if not self.is_shipped(rank, blk.key)
        })
        out = self._round(OP_MATVEC, {
            rank: pack_command(OP_MATVEC, {"key": blk.key}, [x[blk.cols]])
            for rank, blk in enumerate(blocks)
        }, LIGHT_FLOOR)
        y = np.empty(dmat.pm.layout.total, dtype=np.float64)
        rank_ptr = dmat.pm.layout.rank_ptr
        for rank in range(self.comm.size):
            y[rank_ptr[rank] : rank_ptr[rank + 1]] = out[rank][1][0]
        return y

    def apply_factors(
        self, keys: dict[int, str], layout, r: np.ndarray
    ) -> np.ndarray:
        """Per-rank triangular sweeps ``z_r = (L_r U_r)^{-1} r_r`` in one round."""
        payloads = {
            rank: pack_command(
                OP_APPLY, {"key": keys[rank]}, [r[layout.local_slice(rank)]]
            )
            for rank in sorted(keys)
        }
        out = self._round(OP_APPLY, payloads, LIGHT_FLOOR)
        z = np.empty_like(r)
        for rank in sorted(keys):
            z[layout.local_slice(rank)] = out[rank][1][0]
        return z
