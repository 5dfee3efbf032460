"""Distributed sparse linear systems (paper Sec. 1.1).

The global system only exists logically: each simulated processor owns the
rows of one subdomain, ordered [internal; interdomain-interface], with
external-interface (ghost) columns appended.  :class:`PartitionMap` encodes
the ownership and point classification of Fig. 1; :class:`DistributedMatrix`
holds the per-rank blocks B_i, F_i, E_i, C_i and the neighbor coupling Ē_i of
Eq. (4)-(5).
"""

from repro.distributed.layout import Layout
from repro.distributed.partition_map import PartitionMap, Subdomain, absorb_rank
from repro.distributed.matrix import DistributedMatrix, distribute_matrix
from repro.distributed.ops import DistributedOps
from repro.distributed.assembly import assemble_distributed_stiffness

__all__ = [
    "Layout",
    "PartitionMap",
    "Subdomain",
    "absorb_rank",
    "DistributedMatrix",
    "distribute_matrix",
    "DistributedOps",
    "assemble_distributed_stiffness",
]
