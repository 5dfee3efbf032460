"""Driver side seeded with RPR010 violations (fixture).

OP_WORK and OP_ORPHAN are never encoded, a frame of unknown kind BOGUS is
constructed (and PHANTOM through deliver_round), worker errors
bypass the typed mapping, and a float16 array is shipped outside the closed
dtype table.
"""

import numpy as np

from .backends import framing, worker


def run(conn, x):
    conn.send(framing.encode_frame(framing.DATA, 0, bytes(x)))
    cmd = worker.pack_command(worker.OP_PING, {"n": len(x)})
    conn.send(framing.encode_frame(framing.CMD, 1, cmd))
    resp = conn.recv()
    if resp.kind == framing.ACK:
        return None
    op, meta, arrays = worker.unpack_command(resp.payload)
    shrunk = np.asarray(arrays[0], dtype="float16")
    conn.send(framing.encode_frame(framing.BOGUS, 2, bytes(shrunk)))
    deliver_round(conn, seq=3, payload=b"", kind=framing.PHANTOM)
    return meta


def deliver_round(conn, kind, seq, payload):
    conn.send(framing.encode_frame(kind, seq, payload))
