"""Driver-side session for worker-resident subdomain compute.

:mod:`repro.comm.backends.worker` defines what a rank process can execute;
this module is the driver's half: a :class:`WorkerCompute` session bound to
one communicator + real backend that ships each rank its subdomain state
**once per world** (content-hash keyed, the factor cache's identity; the
world keeps the shipped keys, so a later communicator leasing the same
pooled world ships nothing) and then drives the per-iteration hot path —
the row-block MATVEC and the triangular-sweep APPLY — through batched
``CMD`` rounds whose vectors cross in each rank's shared-memory arena.
Every real backend gets a session: its ranks always compute.

A **round** is one delivery round (:func:`repro.comm.delivery.deliver_round`,
``docs/robustness.md`` "The delivery round") with a ``CMD`` edge per
participating rank: all frames hit the pipes before the driver blocks on
the first response, so rank processes overlap their compute, and failures
are retried and classified exactly like a ghost-exchange transfer (every
worker op is idempotent, so a duplicate command re-executes bitwise
identically).  The typed :class:`~repro.resilience.errors.CommFault` an
exhausted budget raises is what lets ``absorb_rank`` +
:class:`ResilientSolver` recover from a rank killed mid-MATVEC; the
recovered communicator's new world then re-ships the survivors their
re-partitioned subdomains.  A rank whose bounded store evicted a key
answers :class:`~repro.resilience.errors.NotResident`; the session
re-ships that rank's state and repeats the round once.

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
from repro.comm.backends.arena import crc as slot_crc
from repro.comm.backends.base import TransportTimeout
from repro.comm.backends.worker import (
    OP_APPLY,
    OP_FACTOR,
    OP_LOAD_FACTOR,
    OP_LOAD_MATRIX,
    OP_MATVEC,
    OP_NAMES,
    OP_RUN_CHUNK,
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
    communicator, and the shipped-key set they consult is the world's.  A
    communicator born from ``absorb_rank`` recovery has a *new* world (a
    damaged one is never reused) whose set starts empty, so state is
    re-shipped on first use, which is the whole recovery story.
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
    worker-side ILU, say) comes back as that class, with the ``rank`` in
    its context, so retry/fallback logic upstream is blind to where the
    computation ran.
    """
    msg = (
        f"worker rank {rank} failed {op_name}: "
        f"{meta.get('error', 'unknown error')}"
    )
    cls = getattr(_errors, str(meta.get("etype", "")), None)
    if isinstance(cls, type) and issubclass(cls, _errors.SolverFault):
        raise cls(msg, rank=rank)
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


def run_chunk(backend, rank: int, seq: int, meta: dict,
              timeout: float) -> tuple[dict, list]:
    """One ``RUN_CHUNK`` round: a chunk of a service job, solved in the
    process behind ``rank``; returns the result's ``(meta, arrays)``.

    Not a delivery round: it is sent once and never probed, since a worker
    in the middle of a chunk cannot answer a PING and must not be fenced
    for computing.  It waits for the reply, the process's exit or
    ``timeout``, and a timeout fences the process, so a killed or hung
    worker both raise the supervisor's :class:`RankDeadError`.
    """
    raw = framing.encode_frame(
        framing.CMD, rank, rank, seq, pack_command(OP_RUN_CHUNK, meta))
    res = backend.request_many({rank: raw}, timeout)[rank]
    if isinstance(res, TransportTimeout):
        backend.fence(rank)
    if isinstance(res, _errors.MessageCorruption):
        raise res
    if isinstance(res, Exception):
        raise backend.classify(rank, op=OP_NAMES[OP_RUN_CHUNK])
    if res.kind == framing.NAK:
        raise _errors.MessageCorruption(
            f"worker rank {rank} refused a run-chunk frame: "
            f"{res.payload.decode(errors='replace')}", rank=rank)
    _, out, arrays = unpack_command(res.payload)
    if "error" in out:
        _raise_worker_error(rank, OP_NAMES[OP_RUN_CHUNK], out)
    return out, arrays


class WorkerCompute:
    """One communicator's worker-resident compute session."""

    def __init__(self, comm: Communicator) -> None:
        self.comm = comm
        self.backend = comm.backend

    def is_shipped(self, rank: int, key: str) -> bool:
        """Whether ``key`` is resident in ``rank`` as far as the world knows."""
        return (rank, key) in self.backend.shipped

    # -- the round primitive ----------------------------------------------

    def _round(
        self, op: int, payloads: dict[int, bytes], floor: float,
        stage=None, take=None,
    ) -> dict[int, tuple[dict, list]]:
        """One batched command round: a CMD edge per participating rank.

        ``stage`` is handed to the delivery round (it writes an edge's input
        slot before each send); ``take(rank, meta)`` reads a delivered
        result's output slot, which becomes the rank's one array.
        """
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
            if take is not None:
                arrays = [take(edge.dst, meta)]  # a bad CRC retries the edge
            out[edge.dst] = (meta, arrays)

        deliver_round(
            comm, framing.CMD,
            {rank: (rank, payloads[rank]) for rank in sorted(payloads)},
            floor=floor, settle=settle, stage=stage, op=op_name,
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

    def _resident_round(self, op: int, keys: dict[int, str], ship, payloads,
                        floor: float, **hooks) -> dict[int, tuple[dict, list]]:
        """A round over the state ``keys`` names: what the world has not
        shipped goes first (``ship(rank)`` is the rank's ``(key, payload)``
        entry), and a rank that answers :class:`NotResident` gets its entry
        again before the round is repeated, once."""
        def attempt() -> dict[int, tuple[dict, list]]:
            if ship is not None:
                self.ensure({rank: ship(rank) for rank in sorted(keys)
                             if not self.is_shipped(rank, keys[rank])})
            return self._round(op, payloads, floor, **hooks)

        try:
            return attempt()
        except _errors.NotResident as exc:
            if ship is None:
                raise
            rank = exc.context["rank"]
            self.backend.shipped.discard((rank, keys[rank]))
        return attempt()

    def _vector_round(self, pack, keys: dict[int, str], ship,
                      src: dict[int, np.ndarray], nout: dict[int, int]
                      ) -> dict[int, np.ndarray]:
        """MATVEC / APPLY: rank r's input ``src[r]`` goes through its arena,
        and so does its ``nout[r]``-long result (a view of the output slot,
        valid until the rank's next vector op).  ``pack(meta)`` encodes the
        command that names them."""
        arenas = {rank: self.backend.arena(rank, max(src[rank].size, nout[rank]))
                  for rank in sorted(keys)}
        payloads = {
            rank: pack({
                "key": keys[rank], "arena": arenas[rank].spec,
                "n": int(src[rank].size), "crc": slot_crc(src[rank]),
            })
            for rank in sorted(keys)
        }
        op = payloads[min(payloads)][0]
        out = self._resident_round(
            op, keys, ship, payloads, LIGHT_FLOOR,
            stage=lambda edge: arenas[edge.dst].put(src[edge.dst]),
            take=lambda rank, meta: arenas[rank].take(
                arenas[rank].out, int(meta["n"]), int(meta["crc"]), "output"),
        )
        return {rank: out[rank][1][0] for rank in out}

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
            if not self.is_shipped(rank, key)
        }
        if not payloads:
            return 0
        out = self._round(payloads[min(payloads)][0], payloads, HEAVY_FLOOR)
        self.backend.shipped.update((rank, entries[rank][0]) for rank in out)
        return len(out)

    def factor(
        self, payload_meta: dict[int, dict], perms: dict[int, np.ndarray],
        load: dict[int, tuple[str, bytes]] | None = None,
    ) -> dict[int, tuple[dict, list]]:
        """Run ``OP_FACTOR`` on every rank's resident matrix, in one round.

        ``payload_meta[rank]`` is the FACTOR meta (alg/params/matrix_key/
        factor_key); ``perms[rank]`` (optional per rank) is the RCM
        permutation the worker must keep with the factor for APPLY;
        ``load[rank]``, if given, is the :func:`load_matrix` entry of the
        matrix to factor, shipped first unless the world has it.
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
        keys = {rank: payload_meta[rank]["matrix_key"] for rank in sorted(payload_meta)}
        ship = None if load is None else load.__getitem__
        out = self._resident_round(OP_FACTOR, keys, ship, payloads, HEAVY_FLOOR)
        for rank in out:
            self.backend.shipped.add((rank, payload_meta[rank]["factor_key"]))
        return out

    # -- per-iteration ops -------------------------------------------------

    def matvec(self, dmat, x: np.ndarray) -> np.ndarray:
        """Distributed matvec on the workers; bitwise equal to the fused one.

        Each rank holds a column-compacted row block of the fused operator
        (per-row storage order preserved, so per-row accumulation order —
        and every result bit — matches the driver's single fused product)
        and reads its compacted input slice ``x[cols]`` from its arena.
        """
        blocks = [dmat.rank_block(rank) for rank in range(self.comm.size)]
        got = self._vector_round(
            lambda meta: pack_command(OP_MATVEC, meta),
            {rank: blk.key for rank, blk in enumerate(blocks)},
            lambda rank: load_matrix(blocks[rank].key, blocks[rank].a),
            {rank: np.take(x, blk.cols) for rank, blk in enumerate(blocks)},
            {rank: blk.a.shape[0] for rank, blk in enumerate(blocks)},
        )
        y = np.empty(dmat.pm.layout.total, dtype=np.float64)
        rank_ptr = dmat.pm.layout.rank_ptr
        for rank in range(self.comm.size):
            y[rank_ptr[rank] : rank_ptr[rank + 1]] = got[rank]
        return y

    def apply_factors(
        self, keys: dict[int, str], layout, r: np.ndarray, ship=None,
    ) -> np.ndarray:
        """Per-rank triangular sweeps ``z_r = (L_r U_r)^{-1} r_r`` in one round.

        ``ship(rank)`` is the :func:`load_factor` entry of rank's factor,
        shipped first unless the world has it (None: it must be resident).
        """
        src = {rank: r[layout.local_slice(rank)] for rank in sorted(keys)}
        got = self._vector_round(
            lambda meta: pack_command(OP_APPLY, meta), keys, ship, src,
            {rank: src[rank].size for rank in sorted(src)})
        z = np.empty_like(r)
        for rank in sorted(keys):
            z[layout.local_slice(rank)] = got[rank]
        return z
