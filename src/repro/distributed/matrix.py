"""Distributed sparse matrices.

Each rank stores its owned rows with columns ordered [owned; ghost]; the
owned square part is block-split into Eq. (4)'s [[B, F], [E, C]] and the
interface→ghost coupling Ē (the Σ E_ij y_j term of Eq. (5)) is kept
separately.  The production matvec is *fused*: one compiled scipy product on
the permuted global matrix, charged with exactly the per-rank flop and
message costs the explicit per-rank path incurs (``matvec_explicit`` realizes
that path and is used by tests to prove equivalence).

That is the one idiom of everything applied per iteration — **fused
execution, per-rank cost**: what is block-diagonal over ranks (this
operator's row blocks, the Ē couplings below, the subdomain factors in
:mod:`repro.precond.local`, the Schur operators) is assembled once into one
stacked operator that keeps every row's storage order, applied with one
compiled call, and charged the per-rank flop vector of the loop it replaces.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from dataclasses import dataclass
from typing import Callable, Generic, NamedTuple, TypeVar

from repro import faults, obs
from repro.comm import compute as worker_compute
from repro.comm.communicator import Communicator
from repro.factor.cache import FactorCache
from repro.kernels import apply as apply_kernels
from repro.distributed.layout import Layout
from repro.distributed.partition_map import PartitionMap
from repro.perfmodel.costs import Charge
from repro.resilience.errors import NumericalFault
from repro.sparse.blocksplit import BlockSplit, split_2x2
from repro.utils.validation import ensure_csr

T = TypeVar("T")


class shared_property(Generic[T]):
    """A value derived from the distribution alone, built at first use and
    kept in the instance: racing builders each build, and every one gets
    the value stored first (``functools.cached_property`` takes no lock
    from Python 3.12 on, so its racing builders keep their own)."""

    def __init__(self, build: Callable[..., T]) -> None:
        self._build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        # after the first store the instance attribute shadows this
        return obj.__dict__.setdefault(self._name, self._build(obj))


class Stack(NamedTuple):
    """One kind of block of every rank, stacked (``stack_csr``, read-only),
    and the flops each rank is charged for its block's product."""

    a: sp.csr_matrix
    flops: tuple[float, ...]


def _stack(blocks: list[sp.csr_matrix]) -> Stack:
    a = apply_kernels.stack_csr(blocks)
    for arr in (a.data, a.indices, a.indptr):
        arr.flags.writeable = False  # a remembered distribution is shared
    return Stack(a, tuple(2.0 * b.nnz for b in blocks))


@dataclass(frozen=True)
class RankBlock:
    """One rank's column-compacted row block of the fused operator.

    ``a`` keeps every row's entries in the *same storage order* as the
    fused matrix (the compaction map is monotone), so ``a @ xsub`` runs
    each row's accumulation in the identical order — the worker-side
    product is bitwise equal to the matching slice of the fused product.
    ``cols`` are the distributed-global indices backing ``xsub``, so a
    MATVEC ships ``x[cols]``.  ``cols`` has all the rank's own columns,
    from ``own`` on, for the internal rows, which read no other.  ``key``
    is the content digest the shipping protocol dedupes on.
    """

    key: str
    a: sp.csr_matrix
    cols: np.ndarray
    own: int


class DistributedMatrix:
    """The distributed realization of a square sparse operator."""

    def __init__(
        self,
        pm: PartitionMap,
        local_matrices: list[sp.csr_matrix],
    ) -> None:
        """``local_matrices[r]``: rank r's owned rows, columns [owned; ghost]."""
        if len(local_matrices) != pm.num_ranks:
            raise ValueError("need one local matrix per rank")
        self.pm = pm
        self.local = [ensure_csr(a) for a in local_matrices]
        self.owned_square: list[sp.csr_matrix] = []
        self.blocks: list[BlockSplit] = []
        self.ghost_coupling: list[sp.csr_matrix] = []
        for r, sd in enumerate(pm.subdomains):
            a = self.local[r]
            if a.shape != (sd.n_owned, sd.n_owned + len(sd.ghost)):
                raise ValueError(
                    f"rank {r}: local matrix shape {a.shape} does not match "
                    f"({sd.n_owned}, {sd.n_owned + len(sd.ghost)})"
                )
            owned_part = ensure_csr(a[:, : sd.n_owned])
            self.owned_square.append(owned_part)
            self.blocks.append(split_2x2(owned_part, sd.n_internal))
            ghost_part = ensure_csr(a[:, sd.n_owned :])
            internal_ghost = ghost_part[: sd.n_internal]
            if internal_ghost.nnz:
                raise ValueError(
                    f"rank {r}: internal rows couple to ghost points — "
                    "partition classification is inconsistent with the matrix"
                )
            self.ghost_coupling.append(ensure_csr(ghost_part[sd.n_internal :]))

        # the Ē blocks stacked, for the Schur operators' Σ_j E_ij y_j: only
        # ranks that have ghost columns take part — a rank without any (P=1,
        # a disconnected part) gets no "+ 0" that would turn a -0.0 into +0.0
        self.coupled_ranks = [
            r for r, g in enumerate(self.ghost_coupling) if g.shape[1]
        ]
        self._ghost_stack = apply_kernels.stack_csr(
            [self.ghost_coupling[r] for r in self.coupled_ranks]
        )
        self._ghost_layout = Layout.from_sizes([len(sd.ghost) for sd in pm.subdomains])

        # fused operator: the permuted global matrix in distributed ordering
        self._fused = self._build_fused()
        # static per-rank matvec flop counts (2 flops per stored entry), and
        # the whole charge of one matvec with its ghost exchange
        self.matvec_flops = np.asarray([2.0 * a.nnz for a in self.local])
        self._matvec_charge = Charge(
            pm.num_ranks, self.matvec_flops, pm.pattern.msgs_per_rank, pm.pattern.bytes_per_rank
        )
        # lazily built worker-shipping blocks (rank -> RankBlock)
        self._rank_blocks: dict[int, RankBlock] = {}

    # -- construction of the fused operator --------------------------------

    def _build_fused(self) -> sp.csr_matrix:
        pm = self.pm
        n = pm.layout.total
        parts = []
        for r, sd in enumerate(pm.subdomains):
            a = self.local[r].tocoo()
            # map local columns to distributed indices
            col_map = np.concatenate(
                [
                    pm.inv_perm[sd.owned],
                    pm.inv_perm[sd.ghost] if sd.ghost.size else np.empty(0, dtype=np.int64),
                ]
            )
            rows = pm.layout.rank_ptr[r] + a.row
            cols = col_map[a.col]
            parts.append((rows, cols, a.data))
        rows = np.concatenate([p[0] for p in parts])
        cols = np.concatenate([p[1] for p in parts])
        data = np.concatenate([p[2] for p in parts])
        return ensure_csr(sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr())

    def rank_block(self, r: int) -> RankBlock:
        """Rank ``r``'s shippable :class:`RankBlock` (built once, cached).

        A CSR row slice preserves each row's entry order, and the column
        compaction (``searchsorted`` into the sorted used-column set) is a
        monotone relabeling — together they guarantee the block product is
        bitwise equal to the fused product's row slice.
        """
        blk = self._rank_blocks.get(r)
        if blk is not None:
            return blk
        lo = int(self.pm.layout.rank_ptr[r])
        hi = int(self.pm.layout.rank_ptr[r + 1])
        rows = self._fused[lo:hi].tocsr()
        cols = np.union1d(rows.indices, np.arange(lo, hi))
        a = sp.csr_matrix(
            (rows.data, np.searchsorted(cols, rows.indices), rows.indptr),
            shape=(hi - lo, len(cols)),
        )
        for arr in (a.data, a.indices, a.indptr, cols):
            arr.flags.writeable = False  # a remembered distribution is shared
        blk = RankBlock(
            key=FactorCache.key("matvec-block", a, (lo, hi)),
            a=a,
            cols=cols,
            own=int(np.searchsorted(cols, lo)),
        )
        return self._rank_blocks.setdefault(r, blk)  # racing builders share one

    # -- operator application ----------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        n = self.pm.layout.total
        return (n, n)

    def matvec(self, comm: Communicator, x: np.ndarray, part=None) -> np.ndarray:
        """Distributed matvec (fused execution, full distributed cost);
        ``part`` is a y whose internal rows the ranks computed
        (:func:`repro.comm.compute.apply_matvec`), the interface rows left."""
        # hot path: the enabled() guard keeps the disabled-tracing overhead
        # below anything bench_kernels_micro can measure
        if obs.enabled():
            with obs.span("dist.matvec"):
                return self._matvec_charged(comm, x, part)
        return self._matvec_charged(comm, x, part)

    @shared_property
    def _interface_rows(self) -> tuple[np.ndarray, sp.csr_matrix]:
        """Where the interface rows sit (only coupled ranks have any), and
        those rows of the fused operator, each in its storage order."""
        rows = self.coupled_rows(self.pm.layout)
        return rows, ensure_csr(self._fused[rows])

    # -- stacks of the rank blocks, built once per distribution --------------

    @shared_property
    def split_stacks(self) -> tuple[Stack, Stack, Stack, Stack]:
        """Eq. (4)'s B, F, E and C of every rank, each stacked — Schur 1's
        operators."""
        blocks = self.blocks
        return (
            _stack([b.B for b in blocks]), _stack([b.F for b in blocks]),
            _stack([b.E for b in blocks]), _stack([b.C for b in blocks]),
        )

    @shared_property
    def owned_stack(self) -> Stack:
        """Every rank's owned square block, stacked — Block K's inner
        operator Â."""
        return _stack(self.owned_square)

    @shared_property
    def split_rows(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """Where every rank's internal, then its interface, unknowns sit in a
        distributed vector, and where each rank's internal ones start in the
        stacked B system (with the total last)."""
        splits = [sd.n_internal for sd in self.pm.subdomains]
        ptr = self.pm.layout.rank_ptr
        internal = np.concatenate([np.empty(0, dtype=np.int64)] + [
            np.arange(lo, lo + n) for lo, n in zip(ptr, splits)
        ])
        interface = np.concatenate([np.empty(0, dtype=np.int64)] + [
            np.arange(lo + n, hi) for lo, n, hi in zip(ptr, splits, ptr[1:])
        ])
        for arr in (internal, interface):
            arr.flags.writeable = False
        return internal, interface, tuple(np.concatenate(([0], np.cumsum(splits))).tolist())

    @shared_property
    def interface_coupled_rows(self) -> np.ndarray:
        """:meth:`coupled_rows` of the interface layout (``pm.interface_layout``)."""
        rows = self.coupled_rows(self.pm.interface_layout)
        rows.flags.writeable = False
        return rows

    def _matvec_charged(self, comm: Communicator, x: np.ndarray, part) -> np.ndarray:
        comm.ledger.add_charge(self._matvec_charge)
        # tier-dispatched product (repro.kernels.apply): scipy's compiled CSR
        # matvec on the numpy tier, the scalar spec loop on reference —
        # both bit-compatible, so forcing a tier pins the whole solve.  On a
        # real backend the product runs *in the rank processes* over
        # column-compacted row blocks (bitwise equal by construction); the
        # guard and fault hooks below see the assembled result either way.
        if part is not None:
            rows, interface = self._interface_rows
            y = part
            y[rows] = apply_kernels.csr_matvec(interface, x)
        elif comm.backend.is_real:
            y = worker_compute.matvec(comm, self, x)
        else:
            y = apply_kernels.csr_matvec(self._fused, x)
        plan = faults.active()
        if plan is not None:
            plan.kernel_output("dist.matvec", y)
        # NaN/Inf guard: a cheap sum test first (NaN/Inf propagate through
        # it), the exact elementwise check only to rule out a benign sum
        # overflow before raising
        if not np.isfinite(y.sum()) and not np.all(np.isfinite(y)):
            obs.event("resilience.detected", kind="nonfinite", where="dist.matvec")
            raise NumericalFault(
                "distributed matvec produced non-finite values",
                where="dist.matvec",
                bad=int(np.count_nonzero(~np.isfinite(y))),
                n=int(y.size),
            )
        return y

    def coupled_rows(self, layout: Layout) -> np.ndarray:
        """Where :meth:`interface_coupling` lands in a vector of ``layout``
        whose rank blocks each end with that rank's interface unknowns."""
        ends = layout.rank_ptr[1:]
        return np.concatenate([np.empty(0, dtype=np.int64)] + [
            np.arange(ends[r] - self.pm.subdomains[r].n_interface, ends[r])
            for r in self.coupled_ranks
        ])

    def interface_coupling(
        self, comm: Communicator, owned: list[np.ndarray]
    ) -> np.ndarray:
        """Σ_j E_ij y_j for the interface rows of every coupled rank, stacked
        in rank order (:attr:`coupled_ranks`): one interface exchange of the
        ranks' ``owned`` interface values, one product.  The exchange is
        charged here, the product's flops by the caller.
        """
        ghosts = self._ghost_layout.zeros()
        self.pm.interface_pattern.exchange(
            comm, owned, self._ghost_layout.split(ghosts)
        )
        return apply_kernels.csr_matvec(self._ghost_stack, ghosts)

    def matvec_explicit(self, comm: Communicator, x: np.ndarray) -> np.ndarray:
        """Per-rank matvec with an explicit ghost exchange (test/reference path)."""
        pm = self.pm
        owned = pm.layout.split(x)
        ghosts = [np.zeros(len(sd.ghost)) for sd in pm.subdomains]
        pm.pattern.exchange(comm, owned, ghosts)
        y = np.empty_like(x)
        for r, sd in enumerate(pm.subdomains):
            xi = np.concatenate([owned[r], ghosts[r]])
            pm.layout.local(y, r)[:] = self.local[r] @ xi
        comm.ledger.add_phase(self.matvec_flops)
        return y

    # -- statistics ----------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(sum(a.nnz for a in self.local))

    def diagonal_dist(self) -> np.ndarray:
        """Diagonal of the operator in distributed ordering."""
        return self._fused.diagonal()


def distribute_matrix(
    a_global: sp.csr_matrix, pm: PartitionMap
) -> DistributedMatrix:
    """Split a globally-assembled matrix into its distributed form.

    The paper's preferred path assembles subdomain-by-subdomain
    (:mod:`repro.distributed.assembly`); this converter supports the
    "logically global" path and arbitrary operators.
    """
    a_global = ensure_csr(a_global)
    if a_global.shape[0] != pm.membership.shape[0]:
        raise ValueError("matrix size does not match partition map")
    locals_ = []
    for sd in pm.subdomains:
        cols = np.concatenate([sd.owned, sd.ghost]) if sd.ghost.size else sd.owned
        locals_.append(ensure_csr(a_global[sd.owned][:, cols]))
    return DistributedMatrix(pm, locals_)
