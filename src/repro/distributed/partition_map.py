"""Ownership map and point classification (paper Fig. 1).

Given an adjacency graph (the matrix coupling pattern) and a membership
vector from a partitioner, :class:`PartitionMap` classifies every owned point
as *internal* (all neighbors on the same processor) or *interdomain
interface*, orders each subdomain [internal; interface], collects each
subdomain's *external interface* (ghost) points, and derives the static
:class:`~repro.comm.CommunicationPattern` — the minimum-overlap setup the
paper describes in Sec. 1.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.pattern import CommunicationPattern, ExchangeSpec
from repro.distributed.layout import Layout
from repro.graph.adjacency import Graph


@dataclass
class Subdomain:
    """One processor's share of the distributed system."""

    rank: int
    owned: np.ndarray  # global ids, internal block first then interface block
    n_internal: int
    ghost: np.ndarray  # global ids of external interface points (sorted)

    @property
    def n_owned(self) -> int:
        return len(self.owned)

    @property
    def n_interface(self) -> int:
        return len(self.owned) - self.n_internal

    @property
    def interface_global(self) -> np.ndarray:
        return self.owned[self.n_internal :]


def absorb_rank(
    graph: Graph, membership: np.ndarray, dead_rank: int
) -> np.ndarray:
    """Reassign a dead rank's vertices to surviving neighbors, compact ids.

    The recovery primitive for confirmed rank failures: every vertex owned
    by ``dead_rank`` migrates to the surviving rank that owns the most of
    its graph neighbors (smallest rank id on ties — fully deterministic).
    Vertices whose neighbors are all dead resolve in later passes, once a
    neighbor has itself been reassigned; any still-isolated leftovers go to
    the smallest surviving rank.  Surviving ranks above ``dead_rank`` shift
    down by one, so the result is a valid membership over ``P - 1`` ranks
    ready for a fresh :class:`PartitionMap`.
    """
    membership = np.asarray(membership, dtype=np.int64)
    if membership.shape != (graph.num_vertices,):
        raise ValueError("membership must assign every vertex a rank")
    num_ranks = int(membership.max()) + 1 if membership.size else 0
    if not 0 <= dead_rank < num_ranks:
        raise ValueError(f"dead_rank {dead_rank} not in [0, {num_ranks})")
    if num_ranks < 2:
        raise ValueError("cannot absorb the only rank")

    new = membership.copy()
    orphans = list(np.flatnonzero(membership == dead_rank))
    while orphans:
        still_orphaned = []
        progressed = False
        for v in orphans:
            nbr_ranks = new[graph.indices[graph.indptr[v] : graph.indptr[v + 1]]]
            nbr_ranks = nbr_ranks[nbr_ranks != dead_rank]
            if nbr_ranks.size == 0:
                still_orphaned.append(v)
                continue
            new[v] = np.bincount(nbr_ranks).argmax()
            progressed = True
        if not progressed:
            # an entirely isolated component: park it on the smallest survivor
            survivors = np.flatnonzero(np.bincount(new, minlength=num_ranks) > 0)
            fallback = int(survivors[survivors != dead_rank][0])
            for v in still_orphaned:
                new[v] = fallback
            break
        orphans = still_orphaned
    new[new > dead_rank] -= 1
    return new


class PartitionMap:
    """Global → (rank, local) mapping plus the derived exchange pattern."""

    def __init__(
        self, graph: Graph, membership: np.ndarray, num_ranks: int | None = None
    ) -> None:
        membership = np.asarray(membership, dtype=np.int64)
        n = graph.num_vertices
        if membership.shape != (n,):
            raise ValueError("membership must assign every vertex a rank")
        if membership.size and membership.min() < 0:
            raise ValueError("membership ranks must be >= 0")
        highest = int(membership.max()) + 1 if n else 1
        if num_ranks is None:
            num_ranks = highest
        elif num_ranks < highest:
            raise ValueError("num_ranks smaller than the largest membership id")
        self.membership = membership
        self.num_ranks = num_ranks

        # classify: a point is interface iff it has an off-processor neighbor
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        cross = membership[rows] != membership[graph.indices]
        is_interface = np.zeros(n, dtype=bool)
        np.logical_or.at(is_interface, rows[cross], True)
        self.is_interface = is_interface

        # build subdomains with [internal; interface] owned ordering
        self.subdomains: list[Subdomain] = []
        owner_local = np.empty(n, dtype=np.int64)
        for r in range(num_ranks):
            mine = np.flatnonzero(membership == r)
            internal = mine[~is_interface[mine]]
            interface = mine[is_interface[mine]]
            owned = np.concatenate([internal, interface])
            owner_local[owned] = np.arange(len(owned))
            self.subdomains.append(
                Subdomain(rank=r, owned=owned, n_internal=len(internal), ghost=None)  # type: ignore[arg-type]
            )
        self.owner_local = owner_local

        # ghosts: off-processor neighbors of owned interface points
        cross_rows = rows[cross]
        cross_cols = graph.indices[cross]
        for r, sd in enumerate(self.subdomains):
            mask = membership[cross_rows] == r
            sd.ghost = np.unique(cross_cols[mask])

        # distributed ordering and layouts
        self.layout = Layout.from_sizes([sd.n_owned for sd in self.subdomains])
        self.interface_layout = Layout.from_sizes(
            [sd.n_interface for sd in self.subdomains]
        )
        self.perm = np.concatenate([sd.owned for sd in self.subdomains])
        inv = np.empty(n, dtype=np.int64)
        inv[self.perm] = np.arange(n)
        self.inv_perm = inv

        self.pattern = self._build_pattern()
        self.interface_pattern = self._build_interface_pattern()

    # -- pattern ---------------------------------------------------------

    def _build_pattern(self) -> CommunicationPattern:
        transfers: list[ExchangeSpec] = []
        for r, sd in enumerate(self.subdomains):
            if sd.ghost.size == 0:
                continue
            owners = self.membership[sd.ghost]
            for q in np.unique(owners):
                sel = np.flatnonzero(owners == q)
                globals_ = sd.ghost[sel]
                transfers.append(
                    ExchangeSpec(
                        src=int(q),
                        dst=r,
                        send_local=self.owner_local[globals_],
                        recv_ghost=sel.astype(np.int64),
                    )
                )
        return CommunicationPattern(num_ranks=self.num_ranks, transfers=transfers)

    def _build_interface_pattern(self) -> CommunicationPattern:
        """The same exchange re-indexed against interface-only owned blocks.

        Every sent point is an interdomain-interface point (it is someone's
        ghost), so the full pattern's ``send_local`` indices all fall in the
        interface block; shifting by ``n_internal`` re-bases them onto the
        interface sub-vector used by the Schur iterations.
        """
        transfers = []
        for t in self.pattern.transfers:
            shift = self.subdomains[t.src].n_internal
            if np.any(t.send_local < shift):
                raise AssertionError(
                    "a sent point is not classified as interface — "
                    "classification bug"
                )
            transfers.append(
                ExchangeSpec(
                    src=t.src,
                    dst=t.dst,
                    send_local=t.send_local - shift,
                    recv_ghost=t.recv_ghost,
                )
            )
        return CommunicationPattern(num_ranks=self.num_ranks, transfers=transfers)

    # -- conversions -------------------------------------------------------

    def to_distributed(self, x_global: np.ndarray) -> np.ndarray:
        """Reorder a global-numbering vector into distributed ordering."""
        return np.asarray(x_global)[self.perm]

    def to_global(self, x_dist: np.ndarray) -> np.ndarray:
        """Reorder a distributed-ordering vector back to global numbering."""
        return np.asarray(x_dist)[self.inv_perm]

    def local_view(self, x_dist: np.ndarray, rank: int) -> np.ndarray:
        """Rank's owned block ([internal; interface]) of a distributed vector."""
        return self.layout.local(x_dist, rank)

    def interface_view(self, x_dist: np.ndarray, rank: int) -> np.ndarray:
        """Rank's interface sub-block of a distributed vector (a view)."""
        sd = self.subdomains[rank]
        s = self.layout.local_slice(rank)
        return x_dist[s.start + sd.n_internal : s.stop]

    # -- statistics (bench F1) ---------------------------------------------

    def census(self) -> dict[str, object]:
        """Point-class counts per subdomain, reproducing Fig. 1's anatomy."""
        return {
            "num_ranks": self.num_ranks,
            "internal": [sd.n_internal for sd in self.subdomains],
            "interface": [sd.n_interface for sd in self.subdomains],
            "external_interface": [len(sd.ghost) for sd in self.subdomains],
            "neighbors": [
                self.pattern.neighbors_of(r) for r in range(self.num_ranks)
            ],
        }
