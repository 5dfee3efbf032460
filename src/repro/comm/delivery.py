"""The delivery round: the comm layer's one send → retry → classify loop.

Whatever crosses a rank boundary under the envelope — a ghost-exchange
transfer under a fault plan, a worker command (``CMD``) — goes through
:func:`deliver_round`, on every backend.  A CMD edge is framed and sent to
the backend's ranks.  A ghost edge carries no frame: the driver holds both
ends of every ghost exchange, so the fault plan's per-attempt fate is its
wire.  What a round is, how each per-rank result is classified, where the
fault plan attaches and what resets a rank's miss count are described
once, in ``docs/robustness.md`` ("The delivery round").
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
    """One edge of a round: the frame sent (None on a ghost edge) and what
    came of it."""

    src: int
    dst: int
    seq: int
    raw: bytes | None
    frame: framing.Frame | None = None  #: a CMD edge's validated response
    delivered: bool = False
    retransmits: int = 0
    delay: float = 0.0  #: timeout windows burned + straggler lateness (seconds)
    reason: str = "timeout"  #: how the latest failed attempt failed


def deliver_round(
    comm: Communicator,
    sends: dict[int, tuple[int, bytes | None]],
    *,
    settle: Callable[[Delivery], None],
    stage: Callable[[Delivery], None] | None = None,
    floor: float = 0.0,
    **event_attrs,
) -> None:
    """Deliver ``sends[dst] = (src, payload)`` with retry: a ``CMD`` frame
    per payload, or a ghost edge where the payload is None.

    ``settle(edge)`` is called as each edge leaves the round: the moment it
    is delivered (``edge.delivered``, with a CMD edge's validated response
    in ``edge.frame``; raising abandons the round, except that a
    :class:`MessageCorruption` — the result's arena slot failed its CRC —
    counts as a checksum miss and retransmits), or when the budget is spent
    and the edge's ``CommFault`` is about to be raised.  Either way the edge
    carries what the attempts cost.  ``stage(edge)``, if given, runs before
    every send of the edge (a command round writes its input slot there, so
    a retransmit also repairs a corrupted slot).  ``floor`` floors the
    per-attempt timeout (commands that compute need a window matched to
    the work); ``event_attrs`` ride on every event and in the fault's
    context.  A ghost edge never touches the backend: the plan's fate for
    each attempt stands for its wire (``drop`` a timeout, ``corrupt`` a
    checksum miss, a straggler late delivery), it is no news of a rank, and
    a ghost edge that gives up is typed from what its attempts saw, never
    by the supervisor.  CMD edges go to the backend and meet only the
    plan's dead ranks.  A round under a fault plan, or one that gives up,
    marks the world damaged, so it is never reused.
    """
    backend, policy, stats = comm.backend, comm.retry_policy, comm.comm_stats
    plan = faults.active()
    if plan is not None:
        backend.damaged = True
    dead_ranks = plan.dead_ranks if plan is not None else frozenset()
    edges: dict[int, Delivery] = {}
    for dst in sorted(sends):
        src, payload = sends[dst]
        seq = comm.next_seq(src, dst)
        raw = None if payload is None else framing.encode_frame(
            framing.CMD, src, dst, seq, payload)
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
        results: dict[int, framing.Frame | Exception | None] = {}
        for dst in sorted(pending):
            edge = pending[dst]
            if attempt:
                stats.retries += 1
                edge.retransmits += 1
            ghost = edge.raw is None
            fate = "ok"
            if dead_ranks.intersection((edge.src, dst)):
                fate = "drop"  # the peer plays dead
            elif ghost and plan is not None:
                fate = plan.delivery_action(edge.src, dst, attempt)
            if fate == "drop":
                missed(edge, "timeout")  # nothing arrives: the window burns
            elif fate == "corrupt":
                missed(edge, "checksum")  # the receiver's CRC would not match
            elif ghost:
                results[dst] = None  # delivered, on the plan's word
            else:
                if stage is not None:
                    stage(edge)
                wires[dst] = edge.raw
        if wires:
            results.update(backend.request_many(wires, timeout))
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
            elif res is not None and res.kind == framing.NAK:
                missed(edge, "checksum", nak=res.payload.decode(errors="replace"))
            else:
                lateness = 0.0
                if res is None and plan is not None:
                    lateness = plan.straggler_delay(edge.src, dst)
                if lateness > 0.0:
                    # late but intact: counted apart from retries so traces
                    # can tell a slow link from a lossy one
                    stats.straggler_waits += 1
                    edge.delay += lateness
                edge.frame, edge.delivered = res, True
                if res is not None:  # only a rank's reply is news of it
                    backend.record_ready(dst)
                try:
                    settle(edge)
                except MessageCorruption as exc:
                    edge.frame, edge.delivered = None, False
                    missed(edge, "checksum", nak=str(exc.context.get("reason")))
                    continue
                del pending[dst]

    attempts = policy.max_retries + 1
    for dst in sorted(edges):
        edge = edges[dst]
        if edge.delivered:
            continue
        backend.damaged = True
        context = {"src": edge.src, "dst": dst, "seq": edge.seq, **event_attrs}
        attrs = {"backend": backend.name, **context}
        what = f"transfer {edge.src}->{dst}"
        what = " ".join([*map(str, event_attrs.values()), what])
        # a real backend's supervisor may know the process is dead; otherwise
        # the fault is what the attempts themselves observed
        real = backend.is_real and edge.raw is not None
        fault = backend.classify(dst, **context) if real else None
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
