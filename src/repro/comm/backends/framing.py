"""Wire framing of the integrity envelope.

Every byte string that crosses an execution-backend transport travels inside
one **frame**: a fixed header (magic, frame kind, src/dst rank, per-edge
sequence number, CRC-32, payload length) followed by the raw payload bytes.
Only bytes that cross a pipe are framed — a ghost exchange never does, its
values stay on the driver — and a failed validation maps onto the typed
taxonomy (:class:`~repro.resilience.errors.MessageCorruption`).

The format is deliberately dumb: little-endian ``struct``, no varints, no
compression.  ``decode_frame`` never raises anything but
:class:`MessageCorruption` on malformed input (truncation, bad magic,
unknown kind, length mismatch, checksum mismatch), which is what lets the
receiver treat *every* wire-level failure as a retryable delivery fault.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.resilience.errors import MessageCorruption

#: first four bytes of every frame
MAGIC = b"RPRB"

#: frame kinds (the ``kind`` header field).  1, 2, 4 and 5 are unassigned
#: (retired kinds) and are never reused: a frame of any of them fails
#: ``decode_frame`` like any unknown kind
NAK = 3        #: validation failure; payload is an ASCII reason
HELLO = 6      #: startup handshake, rank process -> driver
SHUTDOWN = 7   #: graceful stop request, driver -> rank process
CMD = 8        #: worker-compute command, driver -> rank process
RESULT = 9     #: worker-compute result, rank process -> driver

FRAME_KINDS = (NAK, HELLO, SHUTDOWN, CMD, RESULT)

KIND_NAMES = {
    NAK: "nak",
    HELLO: "hello",
    SHUTDOWN: "shutdown",
    CMD: "cmd",
    RESULT: "result",
}

#: header: magic, kind, src, dst, seq, crc32, payload length
_HEADER = struct.Struct("<4sBiiQIQ")
HEADER_SIZE = _HEADER.size


@dataclass(frozen=True)
class Frame:
    """One decoded transport frame."""

    kind: int
    src: int
    dst: int
    seq: int
    payload: bytes

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"unknown({self.kind})")


def encode_frame(
    kind: int, src: int, dst: int, seq: int, payload: bytes = b""
) -> bytes:
    """Serialize one frame; the CRC-32 is computed over the payload."""
    if kind not in FRAME_KINDS:
        raise ValueError(f"unknown frame kind {kind!r}; pick from {FRAME_KINDS}")
    if seq < 0:
        raise ValueError("frame seq must be >= 0")
    header = _HEADER.pack(
        MAGIC, kind, src, dst, seq, zlib.crc32(payload), len(payload)
    )
    return header + payload


def peek_header(raw: bytes) -> tuple[int, int, int, int]:
    """Read ``(kind, src, dst, seq)`` from a frame header without validation.

    The sender needs the addressing triple to match a response to the
    frame it sent, and a receiver needs it to address a NAK for bytes that
    were garbled on a real pipe (a checksum that failed).  Only the header
    must be present and carry the right magic; the payload is not
    inspected.

    Truncated input — fewer bytes than the fixed header — must never reach
    ``struct.unpack_from`` (which would raise a bare ``struct.error`` out of
    the retry loop's taxonomy).  The magic prefix is checked *first*, over
    however many bytes arrived, so a short frame of foreign bytes reports
    ``bad-magic`` while a short frame that genuinely starts with our magic
    reports ``truncated`` with the byte count.
    """
    raw = bytes(raw)
    prefix = raw[: len(MAGIC)]
    if prefix != MAGIC[: len(prefix)]:
        raise MessageCorruption(
            f"bad frame magic {prefix!r}", reason="bad-magic",
        )
    if len(raw) < HEADER_SIZE:
        raise MessageCorruption(
            f"frame truncated: {len(raw)} bytes < {HEADER_SIZE}-byte header",
            reason="truncated", nbytes=len(raw),
        )
    magic, kind, src, dst, seq, _crc, _length = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise MessageCorruption(
            f"bad frame magic {magic!r}", reason="bad-magic",
        )
    return kind, src, dst, seq


def decode_frame(raw: bytes) -> Frame:
    """Parse and validate one frame.

    Raises :class:`MessageCorruption` — and only that — on any malformed
    input; the context names what failed (``reason``) so retry telemetry
    can distinguish truncation from checksum mismatches.
    """
    raw = bytes(raw)
    if len(raw) < HEADER_SIZE:
        raise MessageCorruption(
            f"frame truncated: {len(raw)} bytes < {HEADER_SIZE}-byte header",
            reason="truncated", nbytes=len(raw),
        )
    magic, kind, src, dst, seq, crc, length = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise MessageCorruption(
            f"bad frame magic {magic!r}", reason="bad-magic",
        )
    if kind not in FRAME_KINDS:
        raise MessageCorruption(
            f"unknown frame kind {kind}", reason="bad-kind", kind=kind,
        )
    payload = raw[HEADER_SIZE:]
    if len(payload) != length:
        raise MessageCorruption(
            f"frame length mismatch: header says {length} payload bytes, "
            f"got {len(payload)}",
            reason="length-mismatch", expected=length, got=len(payload),
        )
    actual = zlib.crc32(payload)
    if actual != crc:
        raise MessageCorruption(
            f"frame checksum mismatch on {KIND_NAMES.get(kind, kind)} "
            f"{src}->{dst} seq {seq}",
            reason="checksum", expected=crc, got=actual,
            src=src, dst=dst, seq=seq,
        )
    return Frame(kind=kind, src=src, dst=dst, seq=seq, payload=payload)


def nak_reply(raw: bytes, exc: MessageCorruption, rank: int) -> bytes:
    """The NAK a receiver answers a frame that failed validation with.

    Addressed from the (unvalidated) header so the sender's response
    matcher pairs it with the retransmit instead of draining it as a stale
    reply (``rank``'s self-edge if even the header is unreadable).
    """
    try:
        _, src, dst, seq = peek_header(raw)
    except MessageCorruption:
        src, dst, seq = rank, rank, 0
    reason = str(exc.context.get("reason", "corrupt"))
    return encode_frame(NAK, src, dst, seq, reason.encode())


# -- array payloads ----------------------------------------------------------
#
# Worker-compute commands ship numerical arrays.  Pickling them would copy
# every element through the pickle machinery twice per hop; instead an array
# travels as a tiny fixed header (magic, dtype code, element count) followed
# by its raw little-endian buffer, and decodes as a zero-copy
# ``np.frombuffer`` view over the received bytes.  Only the 1-D dtypes the
# protocol actually ships are admitted — a closed table, so a corrupted
# dtype byte cannot smuggle in an object dtype.

#: first bytes of every encoded array block
ARRAY_MAGIC = b"RPRA"

#: dtype code table (closed; little-endian on the wire)
ARRAY_DTYPES = {
    1: "<f8",
    2: "<i8",
    3: "<i4",
    4: "u1",
}

_ARRAY_HEADER = struct.Struct("<4sBQ")
ARRAY_HEADER_SIZE = _ARRAY_HEADER.size


def _dtype_code(dtype) -> int:
    want = np.dtype(dtype).newbyteorder("<")
    for code, name in sorted(ARRAY_DTYPES.items()):
        if np.dtype(name) == want:
            return code
    raise ValueError(
        f"dtype {dtype!r} is not shippable; supported: "
        f"{sorted(ARRAY_DTYPES.values())}"
    )


def encode_array(a) -> bytes:
    """Serialize a 1-D array: fixed header + raw little-endian buffer."""
    a = np.ascontiguousarray(a)
    if a.ndim != 1:
        raise ValueError(f"only 1-D arrays ship on the wire, got ndim={a.ndim}")
    code = _dtype_code(a.dtype)
    body = a.astype(ARRAY_DTYPES[code], copy=False)
    return _ARRAY_HEADER.pack(ARRAY_MAGIC, code, a.size) + body.tobytes()


def decode_array(buf: bytes, offset: int = 0):
    """Decode one array block at ``offset``; returns ``(view, next_offset)``.

    The returned array is a **read-only zero-copy view** over ``buf``;
    callers that need to mutate must copy.  Malformed blocks raise
    :class:`MessageCorruption` so transport-level garbage stays inside the
    retry taxonomy.
    """
    end = offset + ARRAY_HEADER_SIZE
    if len(buf) < end:
        raise MessageCorruption(
            f"array block truncated: {len(buf) - offset} bytes < "
            f"{ARRAY_HEADER_SIZE}-byte header",
            reason="truncated", nbytes=len(buf) - offset,
        )
    magic, code, count = _ARRAY_HEADER.unpack_from(buf, offset)
    if magic != ARRAY_MAGIC:
        raise MessageCorruption(
            f"bad array magic {magic!r}", reason="bad-magic",
        )
    dtype_name = ARRAY_DTYPES.get(code)
    if dtype_name is None:
        raise MessageCorruption(
            f"unknown array dtype code {code}", reason="bad-dtype", code=code,
        )
    dtype = np.dtype(dtype_name)
    body_end = end + count * dtype.itemsize
    if len(buf) < body_end:
        raise MessageCorruption(
            f"array body truncated: wanted {count * dtype.itemsize} bytes, "
            f"got {len(buf) - end}",
            reason="truncated", nbytes=len(buf) - end,
        )
    view = np.frombuffer(buf, dtype=dtype, count=count, offset=end)
    return view, body_end


def encode_arrays(arrays) -> bytes:
    """Concatenate :func:`encode_array` blocks (decode with a loop)."""
    return b"".join(encode_array(a) for a in arrays)


def decode_arrays(buf: bytes, offset: int = 0, count: int | None = None):
    """Decode consecutive array blocks until ``buf`` (or ``count``) runs out."""
    out = []
    while offset < len(buf) and (count is None or len(out) < count):
        a, offset = decode_array(buf, offset)
        out.append(a)
    return out, offset
