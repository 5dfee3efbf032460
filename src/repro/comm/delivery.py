"""The delivery round: the comm layer's one send → retry → classify loop.

Whatever crosses a rank boundary — a ghost-exchange transfer (``DATA``), a
worker command (``CMD``) — goes through :func:`deliver_round`, on simulated
ranks (the in-process loopback) and real ones alike.  What a round is, how
each per-rank result is classified, where the fault plan attaches and what
resets a rank's miss count are described once, in ``docs/robustness.md``
("The delivery round").
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro import faults, obs
from repro.comm.backends import framing
from repro.comm.backends.base import TransportBroken, TransportTimeout
from repro.comm.communicator import Communicator
from repro.resilience.errors import MessageCorruption, MessageTimeout, RankDeadError


@dataclass(slots=True)
class Delivery:
    """One edge of a round: the frame sent and what came of it."""

    src: int
    dst: int
    seq: int
    raw: bytes
    frame: framing.Frame | None = None  #: the validated response, once delivered
    retransmits: int = 0
    delay: float = 0.0  #: timeout windows burned + straggler lateness (seconds)
    reason: str = "timeout"  #: how the latest failed attempt failed


def _sent_crcs(wire: bytes) -> dict:
    """``expected``/``got`` CRCs when the frame we sent was itself garbled."""
    try:
        framing.decode_frame(wire)
    except MessageCorruption as exc:
        return {k: exc.context[k] for k in ("expected", "got") if k in exc.context}
    return {}


def deliver_round(
    comm: Communicator,
    kind: int,
    sends: dict[int, tuple[int, bytes]],
    *,
    settle: Callable[[Delivery], None],
    floor: float = 0.0,
    **event_attrs,
) -> None:
    """Deliver ``sends[dst] = (src, payload)`` as ``kind`` frames, with retry.

    ``settle(edge)`` is called as each edge leaves the round: the moment its
    validated response arrives (``edge.frame`` set; raising abandons the
    round), or — ``frame`` still None — when the budget is spent and the
    edge's ``CommFault`` is about to be raised.  Either way the edge carries
    what the attempts cost.  ``floor`` floors the per-attempt timeout
    (commands that compute need a window matched to the work);
    ``event_attrs`` ride on every event and in the fault's context.  ``DATA``
    edges are open to the plan's per-attempt delivery faults, ``CMD`` edges
    are not.
    """
    backend, policy, stats = comm.backend, comm.retry_policy, comm.comm_stats
    plan = faults.active()
    dead_ranks = plan.dead_ranks if plan is not None else frozenset()
    inject = plan is not None and kind == framing.DATA
    edges: dict[int, Delivery] = {}
    for dst in sorted(sends):
        src, payload = sends[dst]
        seq = comm.next_seq(src, dst)
        raw = framing.encode_frame(kind, src, dst, seq, payload)
        edges[dst] = Delivery(src, dst, seq, raw)
    pending = dict(edges)

    def missed(edge: Delivery, reason: str, **why) -> None:
        # closes over the running ``attempt`` and its ``timeout`` window
        edge.reason = reason
        if reason == "timeout":
            stats.timeouts += 1
            edge.delay += timeout
        else:
            stats.checksum_failures += 1
        obs.event(
            "resilience.comm.retry", src=edge.src, dst=edge.dst, seq=edge.seq,
            attempt=attempt, reason=reason, backend=backend.name,
            **event_attrs, **why,
        )

    for attempt in range(policy.max_retries + 1):
        if not pending:
            break
        timeout = max(policy.wait(attempt), floor)
        wires: dict[int, bytes] = {}
        for dst in sorted(pending):
            edge = pending[dst]
            if attempt:
                stats.retries += 1
                edge.retransmits += 1
            fate = "ok"
            if dead_ranks.intersection((edge.src, dst)):
                fate = "drop"  # the peer plays dead
            elif inject:
                fate = plan.delivery_action(edge.src, dst, attempt)
            if fate == "drop":
                missed(edge, "timeout")  # nothing sent: the window burns
            elif fate == "corrupt":
                # flip one bit of the real frame: the receiver's own check NAKs
                wires[dst] = edge.raw[:-1] + bytes([edge.raw[-1] ^ 0xFF])
            else:
                wires[dst] = edge.raw
        results = backend.request_many(wires, timeout) if wires else {}
        for dst in sorted(results):
            edge, res = pending[dst], results[dst]
            if isinstance(res, TransportTimeout):
                missed(edge, "timeout", peer_state=backend.handle_timeout(dst))
            elif isinstance(res, TransportBroken):
                # confirmed gone — stop burning windows on a corpse, but
                # keep collecting the other ranks' results
                del pending[dst]
            elif isinstance(res, MessageCorruption):
                missed(edge, "checksum")  # the response itself arrived garbled
            elif res.kind == framing.NAK:
                nak = res.payload.decode(errors="replace")
                missed(edge, "checksum", nak=nak, **_sent_crcs(wires[dst]))
            else:
                lateness = plan.straggler_delay(edge.src, dst) if inject else 0.0
                if lateness > 0.0:
                    # late but intact: counted apart from retries so traces
                    # can tell a slow link from a lossy one
                    stats.straggler_waits += 1
                    edge.delay += lateness
                edge.frame = res
                backend.record_ready(dst)
                del pending[dst]
                settle(edge)

    attempts = policy.max_retries + 1
    for dst in sorted(edges):
        edge = edges[dst]
        if edge.frame is not None:
            continue
        context = {"src": edge.src, "dst": dst, "seq": edge.seq, **event_attrs}
        attrs = {"backend": backend.name, **context}
        what = f"transfer {edge.src}->{dst}"
        what = " ".join([*map(str, event_attrs.values()), what])
        # a real backend's supervisor may know the process is dead; otherwise
        # the fault is what the attempts themselves observed
        fault = backend.classify(dst, **context) if backend.is_real else None
        dead = dead_ranks.intersection((edge.src, dst))
        if not isinstance(fault, RankDeadError) and dead:
            fault = RankDeadError(
                f"rank {min(dead)} stopped responding: {what} timed out "
                f"{attempts} times",
                rank=min(dead), **context, attempts=attempts,
            )
        if isinstance(fault, RankDeadError):
            stats.rank_dead += 1
            obs.event("resilience.comm.rank_dead", rank=fault.rank, **attrs)
        else:
            # keeping what the supervisor knows of the rank (``rank``, ``misses``)
            known = fault.context if fault is not None else context
            cls = MessageCorruption if edge.reason == "checksum" else MessageTimeout
            fault = cls(
                f"{what} failed {edge.reason} validation {attempts} times",
                **known, attempts=attempts,
            )
            obs.event("resilience.comm.give_up", reason=edge.reason, **attrs)
        settle(edge)
        raise fault
