"""The in-process backend: the historical single-process simulation.

Ranks are slices of the driver process, a transfer is an array copy, and the
clean path never touches the wire — the ghost exchange keeps its direct-copy
fast path, so this backend is bit-identical *and* cost-identical to the
pre-backend behavior.  :meth:`InProcessBackend.request_many` implements the
frame protocol as a local loopback (validate, echo, NAK a frame that fails
validation): under an active fault plan the delivery round
(:mod:`repro.comm.delivery`) runs simulated transfers through it, so both
backends share one retry/classify loop.
"""

from __future__ import annotations

from dataclasses import replace

from repro.comm.backends import framing
from repro.comm.backends.base import ExecutionBackend
from repro.resilience.errors import MessageCorruption


class InProcessBackend(ExecutionBackend):
    """Simulated ranks inside the driver process (the default)."""

    name = "inprocess"
    is_real = False

    def request_many(self, messages, timeout: float):
        return {r: self._loopback(r, messages[r]) for r in sorted(messages)}

    def _loopback(self, rank: int, raw: bytes) -> framing.Frame:
        """Validate the frame and answer like a rank process would."""
        self._check_rank(rank)
        try:
            frame = framing.decode_frame(raw)
        except MessageCorruption as exc:
            return framing.decode_frame(framing.nak_reply(raw, exc, rank))
        if frame.kind == framing.PING:
            return replace(frame, kind=framing.PONG, payload=b"")
        if frame.kind == framing.DATA:
            return replace(frame, kind=framing.ACK)
        reason = f"unexpected {frame.kind_name} frame"
        return replace(frame, kind=framing.NAK, payload=reason.encode())
