"""Cost accounting for simulated parallel execution.

Execution is modeled as a sequence of *phases* separated by synchronization
points (the natural structure of a Krylov iteration: matvec → dots → ...).
A phase's duration is governed by its slowest rank, so for each phase we
accumulate the per-rank maxima of flops, message counts and message bytes:

    T = Σ_phases max_r (flops_r/rate + msgs_r·latency + bytes_r/bandwidth)
      ≤ Σ_phases [max_r flops_r / rate + max_r msgs_r · latency + ...]

We store the right-hand side's machine-independent aggregates (``crit_*``)
so one solve can be re-priced on any machine, plus grand totals for
efficiency statistics.  Allreduce synchronizations (inner products) are
counted separately since their cost depends on P logarithmically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: the scalar counters a ledger accumulates, in canonical order — the
#: observability layer snapshots and diffs exactly these fields
COUNT_FIELDS = (
    "crit_flops",
    "crit_msgs",
    "crit_bytes",
    "allreduces",
    "allreduce_bytes",
    "total_flops",
    "total_msgs",
    "total_bytes",
    "phases",
    "delay_seconds",
)


@dataclass
class CostLedger:
    """Accumulated per-solve cost model state for ``num_ranks`` processors."""

    num_ranks: int
    crit_flops: float = 0.0
    crit_msgs: float = 0.0
    crit_bytes: float = 0.0
    allreduces: int = 0
    allreduce_bytes: float = 0.0
    total_flops: float = 0.0
    total_msgs: float = 0.0
    total_bytes: float = 0.0
    phases: int = 0
    #: machine-independent injected wall-clock seconds on the critical path —
    #: straggler delays and retry-timeout windows from the communication
    #: fault layer land here (a phase waits for its slowest rank, so the
    #: per-phase maximum over ranks is what accumulates)
    delay_seconds: float = 0.0
    per_rank_flops: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: per-rank resident working-set bytes (local matrix + factors + vectors);
    #: optional — set by the driver so cache-aware machines (paper Sec. 4.3's
    #: "subdomain fits in cache" threshold) can boost the flop rate
    working_set_bytes: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        if self.per_rank_flops is None:
            self.per_rank_flops = np.zeros(self.num_ranks)

    def _per_rank(self, x: np.ndarray | float) -> np.ndarray:
        a = np.asarray(x, dtype=np.float64)
        return a if a.shape == (self.num_ranks,) else np.broadcast_to(a, (self.num_ranks,))

    def add_phase(
        self,
        flops_per_rank: np.ndarray | float,
        msgs_per_rank: np.ndarray | float = 0.0,
        bytes_per_rank: np.ndarray | float = 0.0,
    ) -> None:
        """Record one bulk-synchronous phase.

        Scalar arguments mean "the same on every rank".  A scalar zero (the
        default for messages and bytes) adds exactly nothing and is skipped;
        the per-rank sums keep NumPy's summation order either way.
        """
        f = self._per_rank(flops_per_rank)
        self.crit_flops += float(f.max())
        self.total_flops += float(f.sum())
        self.per_rank_flops = self.per_rank_flops + f
        if isinstance(msgs_per_rank, np.ndarray) or msgs_per_rank:
            m = self._per_rank(msgs_per_rank)
            self.crit_msgs += float(m.max())
            self.total_msgs += float(m.sum())
        if isinstance(bytes_per_rank, np.ndarray) or bytes_per_rank:
            b = self._per_rank(bytes_per_rank)
            self.crit_bytes += float(b.max())
            self.total_bytes += float(b.sum())
        self.phases += 1

    def add_allreduce(self, nbytes: int = 8) -> None:
        """Record one allreduce synchronization (e.g. a global inner product)."""
        self.allreduces += 1
        self.allreduce_bytes += nbytes

    def add_delay(self, seconds_per_rank: np.ndarray | float) -> None:
        """Record injected wall-clock delay (straggler / retry timeout).

        The bulk-synchronous model waits for the slowest rank, so only the
        per-rank maximum enters the critical path.
        """
        self.delay_seconds += float(self._per_rank(seconds_per_rank).max())

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger (e.g. a setup phase) into this one."""
        if other.num_ranks != self.num_ranks:
            raise ValueError("cannot merge ledgers with different rank counts")
        self.crit_flops += other.crit_flops
        self.crit_msgs += other.crit_msgs
        self.crit_bytes += other.crit_bytes
        self.allreduces += other.allreduces
        self.allreduce_bytes += other.allreduce_bytes
        self.total_flops += other.total_flops
        self.total_msgs += other.total_msgs
        self.total_bytes += other.total_bytes
        self.phases += other.phases
        self.delay_seconds += other.delay_seconds
        self.per_rank_flops = self.per_rank_flops + other.per_rank_flops

    def counts(self) -> dict[str, float]:
        """The scalar counters as a plain dict (see :data:`COUNT_FIELDS`)."""
        return {f: float(getattr(self, f)) for f in COUNT_FIELDS}

    @property
    def load_imbalance(self) -> float:
        """max/mean of accumulated per-rank flops (1.0 = perfectly balanced)."""
        mean = self.per_rank_flops.mean()
        if mean <= 0.0:  # flop counts are non-negative, so this is the exact empty case
            return 1.0
        return float(self.per_rank_flops.max() / mean)
