"""Worker-resident subdomain compute: the command set rank processes serve.

On a real backend every rank process computes its own subdomain's share:
it factors its blocks and runs the per-rank hot path.  This module is the
**command protocol** the rank processes serve, layered on the framed
seq + CRC transport (:mod:`~repro.comm.backends.framing`, frame kinds
``CMD``/``RESULT``).

A command payload is ``(opcode, meta, arrays)``: a one-byte opcode, a small
JSON meta dict (scalars and strings only), and zero or more raw
little-endian array blocks (:func:`framing.encode_array` — no pickle on the
hot path).  The result payload uses the same encoding; every result meta
carries ``seconds``, the worker-measured compute time of the command, which
is what lets the driver attribute time to ranks (``comm.worker.round``
events, the worker table of ``repro trace``).

Six commands: ``LOAD_MATRIX`` and ``LOAD_FACTOR`` make state resident,
``FACTOR`` eliminates a resident matrix, and the two per-iteration ops are
``MATVEC`` (a row block times the compacted input slice) and ``APPLY`` (the
triangular sweeps).  Those two carry no arrays: their vectors cross in the
rank's shared-memory arena (:mod:`~repro.comm.backends.arena`), and the
frames carry the slot lengths and CRCs.  Every stored matrix is a plain CSR.
``RUN_CHUNK`` is the coarse one: a solve service's worker process runs one
whole chunk of a job (:func:`repro.service.runner.serve_chunk`) and returns
its attempts and residual history.

Determinism contract (docs/algorithms.md, "Worker-resident compute"):
every handler runs the **same kernel code** the in-process path runs —
:func:`repro.kernels.apply.csr_matvec` for the matvec,
:meth:`repro.factor.base.ILUFactorization.solve` for the triangular
sweeps, :func:`repro.factor.ilu0.ilu0` / :func:`repro.factor.ilut.ilut`
for factorization — on bitwise-identical inputs, so worker results are
bitwise equal to driver results and the backend determinism gate holds
unchanged.

State is **content-addressed**: ``LOAD``/``FACTOR`` store objects under the
driver-computed SHA-256 content key, so repeated solves over the same
operator skip the transfer (the world keeps the shipped keys for as long as
its ranks live) and a re-ship after ``absorb_rank`` recovery reproduces the
exact factors the digest names.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from time import perf_counter, process_time

import numpy as np

from repro.comm.backends import framing
from repro.comm.backends.arena import Arena
from repro.comm.backends.arena import crc as slot_crc
from repro.resilience.errors import MessageCorruption, NotResident

#: command opcodes (first payload byte)
OP_LOAD_MATRIX = 1    #: store a CSR matrix under a content key
OP_LOAD_FACTOR = 2    #: store an ILU factorization (L, U[, perm]) under a key
OP_FACTOR = 3         #: factor a loaded matrix worker-side; returns L/U
OP_MATVEC = 4         #: y = A_r @ x_sub (the compacted input slice, in the arena)
OP_APPLY = 6          #: z = (LU)^{-1} r via a resident factor
OP_RUN_CHUNK = 7      #: one chunk of a service job, solved in this process

#: canonical meta encoding: identical dicts encode to identical bytes
_META_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: the opcode byte of the reply to a command that did not parse: it names
#: no op, and the driver reports every failure under the op it sent
NO_OP = 0

OP_NAMES = {
    OP_LOAD_MATRIX: "load-matrix",
    OP_LOAD_FACTOR: "load-factor",
    OP_FACTOR: "factor",
    OP_MATVEC: "matvec",
    OP_APPLY: "apply",
    OP_RUN_CHUNK: "run-chunk",
}


def pack_command(op: int, meta: dict, arrays=()) -> bytes:
    """Serialize one command (or result) payload.

    ``meta`` must be JSON-serializable scalars/strings — numerical data
    travels in ``arrays`` as raw buffers, never through JSON or pickle.
    ``NO_OP`` is accepted for the error reply to an unparseable command.
    """
    if op not in OP_NAMES and op != NO_OP:
        raise ValueError(f"unknown worker opcode {op!r}")
    blob = _META_JSON.encode(meta).encode()
    head = bytes([op]) + len(blob).to_bytes(4, "little") + blob
    return head + framing.encode_arrays(arrays)


def unpack_command(payload: bytes) -> tuple[int, dict, list]:
    """Parse a command/result payload back into ``(op, meta, arrays)``.

    Arrays are zero-copy read-only views over ``payload``; handlers that
    build long-lived state copy them explicitly.
    """
    payload = bytes(payload)
    if len(payload) < 5:
        raise ValueError(f"command payload truncated: {len(payload)} bytes")
    op = payload[0]
    if op not in OP_NAMES and op != NO_OP:
        raise ValueError(f"unknown worker opcode {op}")
    mlen = int.from_bytes(payload[1:5], "little")
    if len(payload) < 5 + mlen:
        raise ValueError("command meta truncated")
    meta = json.loads(payload[5 : 5 + mlen].decode())
    arrays, _ = framing.decode_arrays(payload, 5 + mlen)
    return op, meta, arrays


class SubdomainStore:
    """One rank process's resident subdomain state, keyed by content hash.

    ``matrices`` maps key -> CSR matrix (matvec row blocks and
    factorization inputs alike); ``factors`` maps key ->
    ``(ILUFactorization, perm | None)``.  Each is an LRU of at most the
    factor cache's ``capacity`` entries, since the store lives as long as
    its world; a command naming an evicted key raises
    :class:`NotResident`, and the driver re-ships.  ``loads`` / ``cached``
    count arrivals vs. key hits — the re-ship tests read these back.
    ``arena`` is the rank's mapping of its shared-memory arena, once a
    vector op has named one.
    """

    def __init__(self) -> None:
        from repro.factor.cache import get_cache

        self.capacity = get_cache().capacity
        self.matrices: OrderedDict = OrderedDict()
        self.factors: OrderedDict = OrderedDict()
        self.loads = 0
        self.cached = 0
        self.arena: Arena | None = None

    def put(self, table: OrderedDict, key: str, value) -> None:
        table[key] = value
        while len(table) > self.capacity:
            table.popitem(last=False)

    def get(self, table: OrderedDict, key: str, what: str):
        """The resident entry under ``key``, freshly used; else NotResident."""
        if key not in table:
            raise NotResident(f"{what} {key[:12]} not resident", key=key)
        table.move_to_end(key)
        return table[key]

    def attach(self, spec) -> Arena:
        """The arena ``spec`` names, mapped here on first sight."""
        if self.arena is None or self.arena.gen != int(spec[3]):
            if self.arena is not None:
                self.arena.close()
            self.arena = Arena.attach(spec)
        return self.arena


def _csr_from(arrays, nrows: int, ncols: int):
    import scipy.sparse as sp

    indptr, indices, data = (np.array(a) for a in arrays)
    return sp.csr_matrix((data, indices, indptr), shape=(nrows, ncols))


def _handle_load_matrix(store: SubdomainStore, meta: dict, arrays: list) -> tuple[dict, list]:
    key = meta["key"]
    if key in store.matrices:
        store.matrices.move_to_end(key)
        store.cached += 1
        return {"stored": True, "cached": True, "key": key}, []
    store.put(store.matrices, key,
              _csr_from(arrays, int(meta["nrows"]), int(meta["ncols"])))
    store.loads += 1
    return {"stored": True, "cached": False, "key": key}, []


def _handle_load_factor(store: SubdomainStore, meta: dict, arrays: list) -> tuple[dict, list]:
    from repro.factor.base import ILUFactorization

    key = meta["key"]
    if key in store.factors:
        store.factors.move_to_end(key)
        store.cached += 1
        return {"stored": True, "cached": True, "key": key}, []
    store.put(store.factors, key, ILUFactorization.from_wire(meta, arrays))
    store.loads += 1
    return {"stored": True, "cached": False, "key": key}, []


def _handle_factor(store: SubdomainStore, meta: dict, arrays: list) -> tuple[dict, list]:
    """Factor a resident square matrix; keep and return the result.

    Runs the exact driver-side factorization code on the exact driver-side
    bytes, so the factors (and their content digest) are bitwise identical
    to an in-process factorization — the ``backend`` determinism check
    hashes them to prove it.
    """
    from repro.factor.ilu0 import ilu0
    from repro.factor.ilut import ilut

    matrix_key = meta["matrix_key"]
    factor_key = meta["factor_key"]
    if factor_key in store.factors:
        store.cached += 1
        fac, _ = store.get(store.factors, factor_key, "factor")
    else:
        a = store.get(store.matrices, matrix_key, "matrix")
        bf = meta.get("breakdown_frac")
        if meta["alg"] == "ilu0":
            fac = ilu0(a, shift=float(meta.get("shift", 0.0)), breakdown_frac=bf)
        else:
            fac = ilut(
                a, float(meta["drop_tol"]), int(meta["fill"]),
                shift=float(meta.get("shift", 0.0)), breakdown_frac=bf,
            )
        perm = np.array(arrays[0]) if meta.get("has_perm") else None
        store.put(store.factors, factor_key, (fac, perm))
        store.loads += 1
    # the driver sent the permutation, so the factor travels back without it
    return fac.to_wire(factor_key)


def _slot_op(store: SubdomainStore, meta: dict, compute) -> tuple[dict, list]:
    """Run ``compute`` on the input slot; the result goes to the output slot.

    The input is checked against the frame's CRC first (a mismatch raises
    :class:`MessageCorruption`, which the rank NAKs); the result meta
    carries the output's length and CRC for the driver to check.
    """
    arena = store.attach(meta["arena"])
    x = arena.take(arena.inp, int(meta["n"]), int(meta["crc"]), "input")
    y = compute(x)
    arena.out[: y.size] = y
    return {"n": int(y.size), "crc": slot_crc(arena.out[: y.size])}, []


def _handle_matvec(store: SubdomainStore, meta: dict, arrays: list) -> tuple[dict, list]:
    """``y = A_r @ x_sub``: the compacted input slice is in the arena."""
    from repro.kernels import apply as apply_kernels

    a = store.get(store.matrices, meta["key"], "matrix")
    return _slot_op(store, meta, lambda x: apply_kernels.csr_matvec(a, x))


def _handle_apply(store: SubdomainStore, meta: dict, arrays: list) -> tuple[dict, list]:
    """Triangular sweeps ``z = (LU)^{-1} r`` via the resident factor.

    Identical code path to the driver's
    :meth:`~repro.factor.base.ILUFactorization.solve` (fused SuperLU fast
    path with probe, level-scheduled fallback), including the RCM
    permutation round-trip when the factor was built in permuted order.
    """
    from repro.factor.base import solve_permuted

    fac, perm = store.get(store.factors, meta["key"], "factor")
    return _slot_op(store, meta, lambda r: solve_permuted(fac, perm, np.array(r)))


def _handle_run_chunk(store: SubdomainStore, meta: dict, arrays: list) -> tuple[dict, list]:
    """One chunk of a service job, run here: this process is a service
    worker, not a rank, and the chunk needs none of the resident state."""
    from repro.service.runner import serve_chunk

    return serve_chunk(meta)


_HANDLERS = {
    OP_LOAD_MATRIX: _handle_load_matrix,
    OP_LOAD_FACTOR: _handle_load_factor,
    OP_FACTOR: _handle_factor,
    OP_MATVEC: _handle_matvec,
    OP_APPLY: _handle_apply,
    OP_RUN_CHUNK: _handle_run_chunk,
}


def execute(store: SubdomainStore, payload: bytes) -> bytes:
    """Run one command against ``store``; always returns a result payload.

    Failures never kill the worker loop: any exception is serialized as
    ``{"error", "etype"}`` meta and re-raised as its typed counterpart on
    the driver side (:mod:`repro.comm.compute`).  ``seconds`` is the
    worker-measured wall time of the command — decode, compute, and result
    packing of the *handler*, not pipe time — which the driver's
    ``comm.worker.round`` events aggregate per rank.  A command that does
    not parse is answered under ``NO_OP``.
    """
    t0 = perf_counter()
    c0 = process_time()
    op = NO_OP
    try:
        op, meta, arrays = unpack_command(payload)
        out_meta, out_arrays = _HANDLERS[op](store, meta, arrays)
        out_meta = dict(out_meta)
        out_meta["op"] = OP_NAMES[op]
        out_meta["seconds"] = perf_counter() - t0
        out_meta["cpu_seconds"] = process_time() - c0
        return pack_command(op, out_meta, out_arrays)
    except MessageCorruption:
        raise  # bytes that failed a check: the rank NAKs, the driver retries
    except Exception as exc:  # noqa: BLE001 - the wire is the error boundary
        return pack_command(op, {
            "error": str(exc),
            "etype": type(exc).__name__,
            "seconds": perf_counter() - t0,
            "cpu_seconds": process_time() - c0,
        })
