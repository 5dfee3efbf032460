"""The driver's half of worker-resident subdomain compute.

:mod:`repro.comm.backends.worker` defines what a rank process can execute;
the functions here drive it, given a communicator on a real backend (their
callers test ``comm.backend.is_real``; simulated ranks never get here): the
row-block MATVEC and the triangular-sweep APPLY of every iteration, and the
FACTOR of set-up, as batched ``CMD`` rounds whose vectors cross in each
rank's shared-memory arena.  Every real backend's ranks compute.

State is keyed by content hash (the factor cache's identity), and **the
ranks are the only record of what they hold**.  A round goes out as it is;
a rank whose store lacks the key the command names (never shipped, evicted
by the rank's bounded store, or a new process after a respawn or an
``absorb_rank`` recovery) answers :class:`~repro.resilience.errors.NotResident`.
The round records every rank that refused, ships those ranks their entries
in one LOAD round and repeats the op for them alone; a rank that refuses
again is the typed fault.  So a warm op sends nothing but its own round, at
any rank count, and a world leased from the pool re-ships only what its
ranks lack.

A **round** is one delivery round (:func:`repro.comm.delivery.deliver_round`,
``docs/robustness.md`` "The delivery round") with a ``CMD`` edge per
participating rank: all frames hit the pipes before the driver blocks on
the first response, so rank processes overlap their compute, and failures
are retried and classified by the loop a ghost-exchange transfer uses (every
worker op is idempotent, so a duplicate command re-executes bitwise
identically).  The typed :class:`~repro.resilience.errors.CommFault` an
exhausted budget raises is what lets ``absorb_rank`` +
:class:`ResilientSolver` recover from a rank killed mid-MATVEC.

Every round fires the active fault plan's ``exchange_begin`` hook (worker
rounds are delivery opportunities like ghost exchanges) and, when any rank
computed, emits one ``comm.worker.round`` event carrying each such rank's
*worker-measured* wall and CPU seconds — the raw material for
``repro trace``'s per-rank attribution.

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


def load_matrix(key: str, a) -> bytes:
    """The ``LOAD_MATRIX`` payload that stores the CSR matrix ``a`` under
    ``key``."""
    meta = {"key": key, "nrows": int(a.shape[0]), "ncols": int(a.shape[1])}
    return pack_command(OP_LOAD_MATRIX, meta, [a.indptr, a.indices, a.data])


def load_factor(key: str, fac, perm: np.ndarray | None) -> bytes:
    """The ``LOAD_FACTOR`` payload that stores a factorization, with the
    order it was built in, under ``key``
    (:meth:`~repro.factor.base.ILUFactorization.to_wire`'s layout)."""
    return pack_command(OP_LOAD_FACTOR, *fac.to_wire(key, perm))


def run_chunk(backend, rank: int, meta: dict, timeout: float) -> tuple[dict, list]:
    """One ``RUN_CHUNK`` round: a chunk of a service job, solved in the
    process behind ``rank``; returns the result's ``(meta, arrays)``.

    Not a delivery round: it is sent once and never probed, since a worker
    in the middle of a chunk cannot answer a PING and must not be fenced
    for computing.  It waits for the reply, the process's exit or
    ``timeout``, and a timeout fences the process, so a killed or hung
    worker both raise the supervisor's :class:`RankDeadError`.
    """
    raw = framing.encode_frame(
        framing.CMD, rank, rank, backend.next_seq(rank, rank),
        pack_command(OP_RUN_CHUNK, meta))
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


# -- the round primitive ---------------------------------------------------

def _round(
    comm: Communicator, op: int, payloads: dict[int, bytes], floor: float,
    stage=None, take=None,
) -> tuple[dict[int, tuple[dict, list]], dict[int, dict]]:
    """One batched command round: a CMD edge per participating rank.

    Returns ``(out, refused)``: ``out[rank]`` is a rank's ``(meta, arrays)``
    and ``refused[rank]`` the reply meta of a rank that answered
    :class:`NotResident`; any other worker error leaves the round at once.
    ``stage`` is handed to the delivery round (it writes an edge's input
    slot before each send); ``take(rank, meta)`` reads a delivered result's
    output slot, which becomes the rank's one array.
    """
    backend = comm.backend
    op_name = OP_NAMES[op]
    plan = faults.active()
    if plan is not None:
        # a worker round is a delivery opportunity: proc-kill / proc-hang /
        # rank-dead specs fire here exactly as they do at a ghost exchange
        plan.exchange_begin(backend=backend)
    t0 = perf_counter()
    comm.comm_stats.messages += len(payloads)
    out: dict[int, tuple[dict, list]] = {}
    refused: dict[int, dict] = {}

    def settle(edge: Delivery) -> None:
        if edge.frame is None:
            return
        _, meta, arrays = unpack_command(edge.frame.payload)
        if meta.get("etype") == _errors.NotResident.__name__:
            refused[edge.dst] = meta
            return
        if "error" in meta:
            _raise_worker_error(edge.dst, op_name, meta)
        if take is not None:
            arrays = [take(edge.dst, meta)]  # a bad CRC retries the edge
        out[edge.dst] = (meta, arrays)

    # commands ride the (rank, rank) self-edge of the envelope seq space —
    # ghost-exchange edges keep their own counters
    deliver_round(
        comm, framing.CMD,
        {rank: (rank, payloads[rank]) for rank in sorted(payloads)},
        floor=floor, settle=settle, stage=stage, op=op_name,
    )
    if out and obs.enabled():
        ranks = sorted(out)
        obs.event(
            "comm.worker.round", op=op_name, backend=backend.name, ranks=ranks,
            seconds=[float(out[r][0].get("seconds", 0.0)) for r in ranks],
            cpu_seconds=[float(out[r][0].get("cpu_seconds", 0.0)) for r in ranks],
            driver_seconds=perf_counter() - t0,
            bytes=sum(framing.HEADER_SIZE + len(payloads[r]) for r in ranks),
        )
    return out, refused


def ship(comm: Communicator, payloads: dict[int, bytes]) -> None:
    """Store state in the ranks: ``payloads[rank]`` as :func:`load_matrix`
    or :func:`load_factor` encode it, one kind per call, in one round."""
    _round(comm, payloads[min(payloads)][0], payloads, HEAVY_FLOOR)


def _resident_round(
    comm: Communicator, op: int, payloads: dict[int, bytes], floor: float,
    load, **hooks,
) -> dict[int, tuple[dict, list]]:
    """A round over state the ranks should hold: the ranks that refuse are
    shipped ``load(rank)`` (their LOAD payload) in one round, and the op is
    repeated for them alone; a second refusal is the typed fault."""
    out, refused = _round(comm, op, payloads, floor, **hooks)
    if refused:
        ship(comm, {rank: load(rank) for rank in sorted(refused)})
        again, refused = _round(
            comm, op, {rank: payloads[rank] for rank in sorted(refused)},
            floor, **hooks)
        out.update(again)
        if refused:
            rank = min(refused)
            _raise_worker_error(rank, OP_NAMES[op], refused[rank])
    return out


def _vector_round(
    comm: Communicator, pack, keys: dict[int, str], load,
    src: dict[int, np.ndarray], nout: dict[int, int],
) -> dict[int, np.ndarray]:
    """MATVEC / APPLY of the state ``keys`` names: rank r's input ``src[r]``
    goes through its arena, and so does its ``nout[r]``-long result (a view
    of the output slot, valid until the rank's next vector op).
    ``pack(meta)`` encodes the command that names them."""
    backend = comm.backend
    arenas = {rank: backend.arena(rank, max(src[rank].size, nout[rank]))
              for rank in sorted(keys)}
    payloads = {
        rank: pack({
            "key": keys[rank], "arena": arenas[rank].spec,
            "n": int(src[rank].size), "crc": slot_crc(src[rank]),
        })
        for rank in sorted(keys)
    }
    op = payloads[min(payloads)][0]
    out = _resident_round(
        comm, op, payloads, LIGHT_FLOOR, load,
        stage=lambda edge: arenas[edge.dst].put(src[edge.dst]),
        take=lambda rank, meta: arenas[rank].take(
            arenas[rank].out, int(meta["n"]), int(meta["crc"]), "output"),
    )
    return {rank: out[rank][1][0] for rank in out}


# -- the ops -----------------------------------------------------------------

def factor(
    comm: Communicator, payload_meta: dict[int, dict],
    perms: dict[int, np.ndarray], matrices: dict[int, bytes],
) -> dict[int, tuple[dict, list]]:
    """Run ``OP_FACTOR`` on every rank's resident matrix, in one round.

    ``payload_meta[rank]`` is the FACTOR meta (alg/params/matrix_key/
    factor_key); ``perms[rank]`` (optional per rank) is the RCM
    permutation the worker must keep with the factor for APPLY;
    ``matrices[rank]`` is the :func:`load_matrix` payload of the matrix to
    factor, shipped if the rank refuses.  Returns the raw per-rank
    ``(meta, arrays)`` for :meth:`~repro.factor.base.ILUFactorization.from_wire`
    to rebuild driver-side factorizations that are bitwise identical to a
    local factorization.
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
    return _resident_round(comm, OP_FACTOR, payloads, HEAVY_FLOOR, matrices.__getitem__)


def matvec(comm: Communicator, dmat, x: np.ndarray) -> np.ndarray:
    """Distributed matvec in the ranks; bitwise equal to the fused one.

    Each rank holds a column-compacted row block of the fused operator
    (per-row storage order preserved, so per-row accumulation order — and
    every result bit — matches the driver's single fused product) and reads
    its compacted input slice ``x[cols]`` from its arena.
    """
    blocks = [dmat.rank_block(rank) for rank in range(comm.size)]
    got = _vector_round(
        comm, lambda meta: pack_command(OP_MATVEC, meta),
        {rank: blk.key for rank, blk in enumerate(blocks)},
        lambda rank: load_matrix(blocks[rank].key, blocks[rank].a),
        {rank: np.take(x, blk.cols) for rank, blk in enumerate(blocks)},
        {rank: blk.a.shape[0] for rank, blk in enumerate(blocks)},
    )
    y = np.empty(dmat.pm.layout.total, dtype=np.float64)
    rank_ptr = dmat.pm.layout.rank_ptr
    for rank in range(comm.size):
        y[rank_ptr[rank] : rank_ptr[rank + 1]] = got[rank]
    return y


def apply_factors(
    comm: Communicator, keys: dict[int, str], layout, r: np.ndarray, load,
) -> np.ndarray:
    """Per-rank triangular sweeps ``z_r = (L_r U_r)^{-1} r_r`` in one round.

    ``load(rank)`` is the :func:`load_factor` payload of rank's factor,
    shipped if the rank refuses.
    """
    src = {rank: r[layout.local_slice(rank)] for rank in sorted(keys)}
    got = _vector_round(comm, lambda meta: pack_command(OP_APPLY, meta), keys,
                        load, src, {rank: src[rank].size for rank in sorted(src)})
    z = np.empty_like(r)
    for rank in sorted(keys):
        z[layout.local_slice(rank)] = got[rank]
    return z
