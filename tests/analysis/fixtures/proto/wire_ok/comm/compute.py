"""Minimal consistent driver side (clean RPR010 fixture)."""

import numpy as np

from .backends import framing, worker


def deliver_round(conn, kind, seq, payload):
    # the kind is forwarded: the checker reads it at the call sites
    conn.send(framing.encode_frame(kind, seq, payload))


def run(conn, x):
    payload = np.asarray(x, dtype="<f8")
    conn.send(framing.encode_frame(framing.DATA, 0, bytes(payload)))
    cmd = worker.pack_command(worker.OP_PING, {"n": len(x)})
    deliver_round(conn, framing.CMD, 1, cmd)
    resp = conn.recv()
    if resp.kind == framing.RESULT:
        op, meta, arrays = worker.unpack_command(resp.payload)
        if "error" in meta:
            _raise_worker_error(meta)
        return arrays
    return None


def _raise_worker_error(meta):
    raise RuntimeError(meta.get("error", "worker failure"))
