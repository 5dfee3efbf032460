"""Driver-side session for worker-resident subdomain compute.

:mod:`repro.comm.backends.worker` defines what a rank process can execute;
this module is the driver's half: a :class:`WorkerCompute` session bound to
one communicator + real backend that ships each rank its subdomain state
**once** (content-hash keyed, the PR 4 factor-cache identity) and then
drives the per-iteration hot path — triangular-sweep APPLY, ghost-only
MATVEC, dot partials — through batched ``CMD`` rounds.

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
CPU seconds — the raw material for ``repro trace``'s per-rank attribution
and the scaling bench's critical-path model (``docs/performance.md``).

Env gate: ``REPRO_WORKER_COMPUTE=0`` disables the session entirely
(multiprocess ranks fall back to validate-and-echo, the PR 7 behavior).
Inner products stay on the driver: their partials are driver-local memory
reads, a pipe round costs a hundred times the BLAS call, and the
fixed-order tree makes :meth:`WorkerCompute.dot_partials` bitwise equal
anyway — it is kept for the rank-resident Krylov of ROADMAP item 3.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

from repro import faults, obs
from repro.comm.backends import framing
from repro.comm.backends.worker import (
    OP_APPLY,
    OP_DOT_PARTIAL,
    OP_FACTOR,
    OP_LOAD_FACTOR,
    OP_LOAD_MATRIX,
    OP_MATVEC,
    OP_MATVEC_GHOSTS,
    OP_NAMES,
    pack_command,
    unpack_command,
)
from repro.comm.communicator import Communicator
from repro.comm.delivery import Delivery, deliver_round
from repro.resilience import errors as _errors

#: disable worker-resident compute (fall back to driver compute)
COMPUTE_ENV = "REPRO_WORKER_COMPUTE"

#: per-attempt timeout floors (seconds): retry policies are tuned for
#: microsecond echo traffic; a command that *computes* needs a window
#: matched to the work, or slow-but-healthy ranks would be fenced
HEAVY_FLOOR = 120.0   #: LOAD / FACTOR — ships state or factors a subdomain
LIGHT_FLOOR = 2.0     #: MATVEC / APPLY / DOT — per-iteration ops


class WorkerComputeError(RuntimeError):
    """A worker executed a command and reported a failure the driver cannot
    map onto the typed resilience taxonomy."""


def compute_enabled() -> bool:
    return os.environ.get(COMPUTE_ENV, "1").strip().lower() not in (
        "0", "off", "false", "no",
    )


def session(comm: Communicator) -> "WorkerCompute | None":
    """The communicator's worker-compute session, or None (driver compute).

    Sessions exist only on real backends with the gate open; they are
    cached on the communicator, so every caller in a solve shares one
    shipped-key set.  A communicator born from ``absorb_rank`` recovery is
    a *new* object with a *new* backend — its session starts empty and
    re-ships state on first use, which is the whole recovery story.
    """
    if not comm.backend.is_real or not compute_enabled():
        return None
    wc = getattr(comm, "_worker_compute", None)
    if wc is None or wc.backend is not comm.backend:
        wc = WorkerCompute(comm)
        comm._worker_compute = wc
    return wc


def _raise_worker_error(rank: int, op: int, meta: dict):
    """Re-raise a worker-reported failure as its typed counterpart.

    The wire carries the exception *name*; anything in the resilience
    taxonomy (``FactorizationBreakdown`` from a worker-side ILU, say)
    comes back as that class so retry/fallback logic upstream is blind to
    where the computation ran.
    """
    msg = (
        f"worker rank {rank} failed {OP_NAMES.get(op, op)}: "
        f"{meta.get('error', 'unknown error')}"
    )
    cls = getattr(_errors, str(meta.get("etype", "")), None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        try:
            raise cls(msg)
        except TypeError:  # taxonomy class with required kwargs
            pass
    raise WorkerComputeError(msg)


class WorkerCompute:
    """One communicator's worker-resident compute session."""

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm
        self.backend = comm.backend
        #: (rank, content-key) pairs confirmed resident in the workers
        self._shipped: set[tuple[int, str]] = set()
        #: the assembled z vector whose per-rank slices sit in the workers'
        #: z-registers (identity-compared: the fused apply→matvec path)
        self._z_last: np.ndarray | None = None

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
            r_op, meta, arrays = unpack_command(edge.frame.payload)
            if "error" in meta:
                _raise_worker_error(edge.dst, r_op, meta)
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

    def ensure_matrices(self, entries: dict[int, tuple[str, dict, list]]) -> int:
        """Ship matrices not yet resident; returns how many actually moved.

        ``entries[rank] = (key, meta, arrays)`` with meta/arrays as
        ``OP_LOAD_MATRIX`` expects (``meta['key']`` must equal ``key``).
        """
        payloads = {}
        for rank in sorted(entries):
            key, meta, arrays = entries[rank]
            if (rank, key) in self._shipped:
                continue
            payloads[rank] = pack_command(OP_LOAD_MATRIX, meta, arrays)
        if not payloads:
            return 0
        out = self._round(OP_LOAD_MATRIX, payloads, HEAVY_FLOOR)
        for rank in out:
            self._shipped.add((rank, entries[rank][0]))
        return len(out)

    def ensure_factors(self, entries: dict[int, tuple[str, dict, list]]) -> int:
        """Ship already-computed factors (``OP_LOAD_FACTOR``) not yet resident.

        ``entries[rank] = (key, *fac.to_wire(key, perm))`` — the layout is
        :meth:`repro.factor.base.ILUFactorization.to_wire`'s alone.
        """
        payloads = {}
        for rank in sorted(entries):
            key, meta, arrays = entries[rank]
            if (rank, key) in self._shipped:
                continue
            payloads[rank] = pack_command(OP_LOAD_FACTOR, meta, arrays)
        if not payloads:
            return 0
        out = self._round(OP_LOAD_FACTOR, payloads, HEAVY_FLOOR)
        for rank in out:
            self._shipped.add((rank, entries[rank][0]))
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
        and every result bit — matches the driver's single fused product).
        When ``x`` *is* the vector the workers just produced via APPLY
        (the fused ``apply_matvec`` path), only interface ghost values
        travel; otherwise each rank receives its compacted input slice.
        """
        size = self.comm.size
        load_entries = {}
        for rank in range(size):
            blk = dmat.rank_block(rank)
            if (rank, blk.key) not in self._shipped:
                load_entries[rank] = (
                    blk.key,
                    {
                        "key": blk.key, "block": True,
                        "nrows": int(blk.a.shape[0]),
                        "ncols": int(blk.a.shape[1]),
                    },
                    [
                        blk.a.indptr, blk.a.indices, blk.a.data,
                        blk.own_pos, blk.own_sel, blk.ghost_pos,
                    ],
                )
        if load_entries:
            self.ensure_matrices(load_entries)
        registered = self._z_last is x
        payloads = {}
        for rank in range(size):
            blk = dmat.rank_block(rank)
            if registered:
                payloads[rank] = pack_command(
                    OP_MATVEC_GHOSTS, {"key": blk.key}, [x[blk.ghost_cols]]
                )
            else:
                payloads[rank] = pack_command(
                    OP_MATVEC, {"key": blk.key}, [x[blk.cols]]
                )
        out = self._round(
            OP_MATVEC_GHOSTS if registered else OP_MATVEC, payloads, LIGHT_FLOOR
        )
        y = np.empty(dmat.pm.layout.total, dtype=np.float64)
        rank_ptr = dmat.pm.layout.rank_ptr
        for rank in range(size):
            y[rank_ptr[rank] : rank_ptr[rank + 1]] = out[rank][1][0]
        return y

    def apply_factors(
        self, keys: dict[int, str], layout, r: np.ndarray
    ) -> np.ndarray:
        """Per-rank triangular sweeps ``z_r = (L_r U_r)^{-1} r_r`` in one round.

        The workers keep their ``z_r`` in the z-register; the assembled z
        is remembered so an immediately following :meth:`matvec` on the
        same object ships ghosts only.
        """
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
        self._z_last = z
        return z

    def dot_partials(self, layout, x: np.ndarray, y: np.ndarray) -> list[float]:
        """Per-rank partial inner products, evaluated in the rank processes.

        No solver path calls this (see the module docstring); combined by
        :func:`~repro.krylov.ops.fixed_tree_sum` the partials reproduce
        :meth:`~repro.distributed.ops.DistributedOps.dot` bit for bit.
        """
        payloads = {
            rank: pack_command(
                OP_DOT_PARTIAL, {},
                [x[layout.local_slice(rank)], y[layout.local_slice(rank)]],
            )
            for rank in range(self.comm.size)
        }
        out = self._round(OP_DOT_PARTIAL, payloads, LIGHT_FLOOR)
        return [float(out[r][1][0][0]) for r in sorted(out)]
