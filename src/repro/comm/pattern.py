"""Communication pattern recognition.

Before any parallel matvec can run, each subdomain must know which of its
owned interface values its neighbors need (sends) and where incoming external
interface values land in its ghost buffer (receives).  Diffpack's parallel
toolbox calls this "communication pattern recognition"; here the pattern is a
static object built once from the partition and reused by every exchange.

The exchange runs on the driver on every backend: the driver holds every
rank's ``owned`` and ``ghost`` arrays, so a clean exchange is a direct copy.
Under a fault plan each transfer travels inside an **integrity envelope** (a
per-(src, dst) sequence number plus a CRC-32 payload checksum) as one DATA
edge of a delivery round (:func:`repro.comm.delivery.deliver_round`,
``docs/robustness.md``), answered by the round's loopback: a failed delivery
(drop, corruption, dead peer) is retransmitted under the communicator's
bounded :class:`~repro.comm.communicator.RetryPolicy`, and this module
charges each burned timeout window and retransmission to the cost ledger.

On a real backend the distributed matvec itself runs in the rank
processes (:mod:`repro.comm.compute`): each ``MATVEC`` worker round hands
a rank its compacted input slice, owned values and ghosts together, in its
shared-memory arena, so this module's exchanges carry the Schur and
Schwarz interface traffic that runs on the driver.  Worker command rounds
are the CMD edges of the same delivery round (``docs/algorithms.md`` §8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro import faults, obs
from repro.comm.backends import framing
from repro.comm.communicator import Communicator
from repro.comm.delivery import Delivery, deliver_round


@dataclass(frozen=True)
class ExchangeSpec:
    """One directed rank-to-rank transfer of a ghost exchange.

    ``send_local`` indexes the *sender's* owned array; ``recv_ghost`` indexes
    the *receiver's* ghost array.  Both sides list the same global points in
    the same order.
    """

    src: int
    dst: int
    send_local: np.ndarray
    recv_ghost: np.ndarray

    @property
    def count(self) -> int:
        return len(self.send_local)

    @cached_property
    def max_send(self) -> int:
        """Largest owned index this transfer reads (-1 when empty)."""
        return int(self.send_local.max()) if len(self.send_local) else -1

    @cached_property
    def max_recv(self) -> int:
        """Largest ghost index this transfer writes (-1 when empty)."""
        return int(self.recv_ghost.max()) if len(self.recv_ghost) else -1


@dataclass
class CommunicationPattern:
    """All transfers of one ghost exchange, plus cached per-rank statistics."""

    num_ranks: int
    transfers: list[ExchangeSpec]
    _msgs_per_rank: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]
    _bytes_per_rank: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        msgs = np.zeros(self.num_ranks)
        nbytes = np.zeros(self.num_ranks)
        for t in self.transfers:
            # charge both endpoints: the sender posts the message, the
            # receiver waits for it (symmetric cost in a latency/bw model)
            msgs[t.src] += 1
            msgs[t.dst] += 1
            nbytes[t.src] += 8 * t.count
            nbytes[t.dst] += 8 * t.count
        self._msgs_per_rank = msgs
        self._bytes_per_rank = nbytes

    @property
    def msgs_per_rank(self) -> np.ndarray:
        return self._msgs_per_rank

    @property
    def bytes_per_rank(self) -> np.ndarray:
        return self._bytes_per_rank

    def neighbors_of(self, rank: int) -> list[int]:
        """Ranks that ``rank`` exchanges data with."""
        out = set()
        for t in self.transfers:
            if t.src == rank:
                out.add(t.dst)
            elif t.dst == rank:
                out.add(t.src)
        return sorted(out)

    def max_neighbor_count(self) -> int:
        return max(
            (len(self.neighbors_of(r)) for r in range(self.num_ranks)), default=0
        )

    def exchange(
        self,
        comm: Communicator,
        owned: list[np.ndarray],
        ghost: list[np.ndarray],
    ) -> None:
        """Execute the ghost exchange in place and charge its cost.

        ``owned[r]`` and ``ghost[r]`` are rank r's owned and ghost value
        arrays; after the call every ghost slot holds the owner's current
        value.  Mismatched buffers raise a clear ``ValueError`` naming the
        offending rank and transfer instead of an opaque IndexError.
        """
        if len(owned) != self.num_ranks or len(ghost) != self.num_ranks:
            raise ValueError(
                f"ghost exchange over {self.num_ranks} ranks needs one owned "
                f"and one ghost array per rank, got {len(owned)} owned / "
                f"{len(ghost)} ghost"
            )
        # hot path: skip even null-span construction when tracing is off
        if obs.enabled():
            with obs.span("comm.exchange", transfers=len(self.transfers)):
                self._exchange(comm, owned, ghost)
        else:
            self._exchange(comm, owned, ghost)

    def _exchange(
        self,
        comm: Communicator,
        owned: list[np.ndarray],
        ghost: list[np.ndarray],
    ) -> None:
        plan = faults.active()
        if plan is not None:
            plan.exchange_begin(backend=comm.backend)
        comm.comm_stats.messages += len(self.transfers)
        for t in self.transfers:
            if len(ghost[t.dst]) <= t.max_recv or len(owned[t.src]) <= t.max_send:
                raise ValueError(
                    f"ghost exchange {t.src}->{t.dst}: transfer targets ghost "
                    f"index {t.max_recv} / owned index {t.max_send}, but rank "
                    f"{t.dst} has {len(ghost[t.dst])} ghost slots and rank "
                    f"{t.src} has {len(owned[t.src])} owned values"
                )
            if plan is not None:
                # legacy silent kinds: corruption past the envelope — the
                # checksum has already validated, detection falls to the
                # numerical guards downstream
                action, value = plan.transfer_action(t.src, t.dst)
                if action == "drop":
                    continue  # ghost slots keep whatever (stale) values they had
                if action != "ok":
                    ghost[t.dst][t.recv_ghost] = owned[t.src][t.send_local]
                    if action == "corrupt":
                        ghost[t.dst][t.recv_ghost] = np.nan
                    else:  # "scale"
                        ghost[t.dst][t.recv_ghost] *= value
                    continue
                self._deliver(comm, t, owned, ghost)
                continue
            ghost[t.dst][t.recv_ghost] = owned[t.src][t.send_local]
        comm.ledger.add_phase(
            0.0, msgs_per_rank=self._msgs_per_rank, bytes_per_rank=self._bytes_per_rank
        )

    def _deliver(
        self,
        comm: Communicator,
        t: ExchangeSpec,
        owned: list[np.ndarray],
        ghost: list[np.ndarray],
    ) -> None:
        """Deliver one transfer as a DATA edge of a delivery round.

        The ghost slots are written from the loopback's ACK, so the bytes
        survived whatever the fault plan did to the attempts;
        retransmissions and waits are charged whether the delivery
        succeeded or gave up.
        """
        payload = owned[t.src][t.send_local]

        def settle(edge: Delivery) -> None:
            if edge.frame is not None:
                ghost[t.dst][t.recv_ghost] = np.frombuffer(
                    edge.frame.payload, dtype=payload.dtype
                )
            self._charge_recovery(comm, t, edge.retransmits, edge.delay)

        deliver_round(
            comm, framing.DATA, {t.dst: (t.src, payload.tobytes())}, settle=settle
        )

    def _charge_recovery(
        self, comm: Communicator, t: ExchangeSpec, retransmits: int, delay: float
    ) -> None:
        """Charge retransmission traffic and timeout/straggler waits."""
        if retransmits:
            msgs = np.zeros(self.num_ranks)
            nbytes = np.zeros(self.num_ranks)
            msgs[[t.src, t.dst]] += retransmits
            nbytes[[t.src, t.dst]] += 8.0 * t.count * retransmits
            comm.ledger.add_phase(0.0, msgs_per_rank=msgs, bytes_per_rank=nbytes)
        if delay > 0.0:
            waits = np.zeros(self.num_ranks)
            waits[t.dst] = delay
            comm.ledger.add_delay(waits)
