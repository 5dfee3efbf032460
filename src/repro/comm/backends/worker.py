"""Worker-resident subdomain compute: the command set rank processes serve.

PR 7 made the ranks real OS processes but left every flop in the driver —
workers validated and echoed envelope frames, which is what kept the
backends bitwise equal.  This module moves the per-rank hot path into the
rank processes themselves: a **command protocol** layered on the framed
seq + CRC transport (:mod:`~repro.comm.backends.framing`, frame kinds
``CMD``/``RESULT``).

A command payload is ``(opcode, meta, arrays)``: a one-byte opcode, a small
JSON meta dict (scalars and strings only), and zero or more raw
little-endian array blocks (:func:`framing.encode_array` — no pickle on the
hot path).  The result payload uses the same encoding; every result meta
carries ``seconds``, the worker-measured compute time of the command, which
is what lets the driver attribute time to ranks (``comm.worker.round``
events, ``repro trace``) and the scaling bench compute measured
critical-path speedups.

Determinism contract (docs/algorithms.md, "Worker-resident compute"):
every handler runs the **same kernel code** the in-process path runs —
:func:`repro.kernels.apply.csr_matvec` for the matvec,
:meth:`repro.factor.base.ILUFactorization.solve` for the triangular
sweeps, :func:`repro.factor.ilu0.ilu0` / :func:`repro.factor.ilut.ilut`
for factorization — on bitwise-identical inputs, so worker results are
bitwise equal to driver results and the PR 5/7 determinism gates hold
unchanged.

State is **content-addressed**: ``LOAD``/``FACTOR`` store objects under the
driver-computed SHA-256 content key, so repeated solves over the same
operator skip the transfer (the driver tracks shipped keys per backend
generation) and a re-ship after ``absorb_rank`` recovery reproduces the
exact factors the digest names.
"""

from __future__ import annotations

import json
from time import perf_counter, process_time

import numpy as np

from repro.comm.backends import framing

#: command opcodes (first payload byte)
OP_LOAD_MATRIX = 1    #: store a CSR matrix under a content key
OP_LOAD_FACTOR = 2    #: store an ILU factorization (L, U[, perm]) under a key
OP_FACTOR = 3         #: factor a loaded matrix worker-side; returns L/U
OP_MATVEC = 4         #: y = A_r @ x_sub (full compacted input vector shipped)
OP_MATVEC_GHOSTS = 5  #: y = A_r @ [z-register; ghosts] (only ghosts shipped)
OP_APPLY = 6          #: z = (LU)^{-1} r; z kept in the worker's z-register
OP_DOT_PARTIAL = 7    #: scalar partial <x_r, y_r> for the tree reduction

OP_NAMES = {
    OP_LOAD_MATRIX: "load-matrix",
    OP_LOAD_FACTOR: "load-factor",
    OP_FACTOR: "factor",
    OP_MATVEC: "matvec",
    OP_MATVEC_GHOSTS: "matvec-ghosts",
    OP_APPLY: "apply",
    OP_DOT_PARTIAL: "dot-partial",
}


def pack_command(op: int, meta: dict, arrays=()) -> bytes:
    """Serialize one command (or result) payload.

    ``meta`` must be JSON-serializable scalars/strings — numerical data
    travels in ``arrays`` as raw buffers, never through JSON or pickle.
    """
    if op not in OP_NAMES:
        raise ValueError(f"unknown worker opcode {op!r}")
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
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
    if op not in OP_NAMES:
        raise ValueError(f"unknown worker opcode {op}")
    mlen = int.from_bytes(payload[1:5], "little")
    if len(payload) < 5 + mlen:
        raise ValueError("command meta truncated")
    meta = json.loads(payload[5 : 5 + mlen].decode())
    arrays, _ = framing.decode_arrays(payload, 5 + mlen)
    return op, meta, arrays


class SubdomainStore:
    """One rank process's resident subdomain state, keyed by content hash.

    ``matrices`` maps key -> ``(csr, own_pos, own_sel, ghost_pos)`` for
    matvec blocks (column-compacted row blocks of the fused operator) or
    ``(csr, None, None, None)`` for plain square matrices (factorization
    inputs).  ``factors`` maps key -> ``(ILUFactorization, perm | None)``.
    ``registers`` holds the last APPLY result so a following
    ``MATVEC_GHOSTS`` ships only interface values.  ``loads`` / ``cached``
    count arrivals vs. key hits — the re-ship tests read these back.
    """

    def __init__(self) -> None:
        self.matrices: dict = {}
        self.factors: dict = {}
        self.registers: dict = {}
        self.loads = 0
        self.cached = 0


def _csr_from(arrays, nrows: int, ncols: int):
    import scipy.sparse as sp

    indptr, indices, data = (np.array(a) for a in arrays)
    return sp.csr_matrix((data, indices, indptr), shape=(nrows, ncols))


def _handle_load_matrix(store: SubdomainStore, meta: dict, arrays: list) -> tuple[dict, list]:
    key = meta["key"]
    if key in store.matrices:
        store.cached += 1
        return {"stored": True, "cached": True, "key": key}, []
    a = _csr_from(arrays[:3], int(meta["nrows"]), int(meta["ncols"]))
    if meta.get("block"):
        own_pos, own_sel, ghost_pos = (np.array(x) for x in arrays[3:6])
        store.matrices[key] = (a, own_pos, own_sel, ghost_pos)
    else:
        store.matrices[key] = (a, None, None, None)
    store.loads += 1
    return {"stored": True, "cached": False, "key": key}, []


def _handle_load_factor(store: SubdomainStore, meta: dict, arrays: list) -> tuple[dict, list]:
    from repro.factor.base import ILUFactorization

    key = meta["key"]
    if key in store.factors:
        store.cached += 1
        return {"stored": True, "cached": True, "key": key}, []
    store.factors[key] = ILUFactorization.from_wire(meta, arrays)
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
        fac, _ = store.factors[factor_key]
    else:
        entry = store.matrices.get(matrix_key)
        if entry is None:
            raise KeyError(f"matrix {matrix_key[:12]} not resident")
        a = entry[0]
        bf = meta.get("breakdown_frac")
        if meta["alg"] == "ilu0":
            fac = ilu0(a, shift=float(meta.get("shift", 0.0)), breakdown_frac=bf)
        else:
            fac = ilut(
                a, float(meta["drop_tol"]), int(meta["fill"]),
                shift=float(meta.get("shift", 0.0)), breakdown_frac=bf,
            )
        perm = np.array(arrays[0]) if meta.get("has_perm") else None
        store.factors[factor_key] = (fac, perm)
        store.loads += 1
    # the driver sent the permutation, so the factor travels back without it
    return fac.to_wire(factor_key)


def _handle_matvec(store: SubdomainStore, meta: dict, arrays: list) -> tuple[dict, list]:
    from repro.kernels import apply as apply_kernels

    entry = store.matrices.get(meta["key"])
    if entry is None:
        raise KeyError(f"matrix {meta['key'][:12]} not resident")
    y = apply_kernels.csr_matvec(entry[0], np.asarray(arrays[0]))
    return {}, [y]


def _handle_matvec_ghosts(store: SubdomainStore, meta: dict, arrays: list) -> tuple[dict, list]:
    """Matvec over ``[z-register; shipped ghosts]`` — interface data only.

    The input vector is assembled in the compacted column order the block
    was built with (ascending distributed-global index), so the per-row
    accumulation order — hence every bit of the product — matches the
    driver's fused matvec.
    """
    from repro.kernels import apply as apply_kernels

    entry = store.matrices.get(meta["key"])
    if entry is None:
        raise KeyError(f"matrix {meta['key'][:12]} not resident")
    a, own_pos, own_sel, ghost_pos = entry
    if own_pos is None:
        raise ValueError(f"matrix {meta['key'][:12]} is not a matvec block")
    z = store.registers.get("z")
    if z is None:
        raise ValueError("no z-register: MATVEC_GHOSTS must follow APPLY")
    xsub = np.empty(a.shape[1], dtype=np.float64)
    xsub[own_pos] = z[own_sel]
    xsub[ghost_pos] = np.asarray(arrays[0])
    y = apply_kernels.csr_matvec(a, xsub)
    return {}, [y]


def _handle_apply(store: SubdomainStore, meta: dict, arrays: list) -> tuple[dict, list]:
    """Triangular sweeps ``z = (LU)^{-1} r`` via the resident factor.

    Identical code path to the driver's
    :meth:`~repro.factor.base.ILUFactorization.solve` (fused SuperLU fast
    path with probe, level-scheduled fallback), including the RCM
    permutation round-trip when the factor was built in permuted order.
    The result is parked in the z-register for a following MATVEC_GHOSTS.
    """
    from repro.factor.base import solve_permuted

    entry = store.factors.get(meta["key"])
    if entry is None:
        raise KeyError(f"factor {meta['key'][:12]} not resident")
    fac, perm = entry
    z = solve_permuted(fac, perm, np.array(arrays[0], dtype=np.float64))
    store.registers["z"] = z
    return {}, [z]


def _handle_dot_partial(store: SubdomainStore, meta: dict, arrays: list) -> tuple[dict, list]:
    partial = float(np.dot(np.asarray(arrays[0]), np.asarray(arrays[1])))
    return {}, [np.asarray([partial], dtype=np.float64)]


_HANDLERS = {
    OP_LOAD_MATRIX: _handle_load_matrix,
    OP_LOAD_FACTOR: _handle_load_factor,
    OP_FACTOR: _handle_factor,
    OP_MATVEC: _handle_matvec,
    OP_MATVEC_GHOSTS: _handle_matvec_ghosts,
    OP_APPLY: _handle_apply,
    OP_DOT_PARTIAL: _handle_dot_partial,
}


def execute(store: SubdomainStore, payload: bytes) -> bytes:
    """Run one command against ``store``; always returns a result payload.

    Failures never kill the worker loop: any exception is serialized as
    ``{"error", "etype"}`` meta and re-raised as its typed counterpart on
    the driver side (:mod:`repro.comm.compute`).  ``seconds`` is the
    worker-measured wall time of the command — decode, compute, and result
    packing of the *handler*, not pipe time — which the driver's
    ``comm.worker.round`` events and the scaling bench aggregate per rank.
    """
    t0 = perf_counter()
    c0 = process_time()
    op = payload[0] if payload and payload[0] in OP_NAMES else OP_DOT_PARTIAL
    try:
        op, meta, arrays = unpack_command(payload)
        out_meta, out_arrays = _HANDLERS[op](store, meta, arrays)
        out_meta = dict(out_meta)
        out_meta["op"] = OP_NAMES[op]
        out_meta["seconds"] = perf_counter() - t0
        out_meta["cpu_seconds"] = process_time() - c0
        return pack_command(op, out_meta, out_arrays)
    except Exception as exc:  # noqa: BLE001 - the wire is the error boundary
        return pack_command(op, {
            "error": str(exc),
            "etype": type(exc).__name__,
            "seconds": perf_counter() - t0,
            "cpu_seconds": process_time() - c0,
        })
