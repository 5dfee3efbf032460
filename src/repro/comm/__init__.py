"""Simulated message-passing layer.

The library executes the distributed algorithms' exact data flow inside one
process: each "processor" owns a slice of every distributed object, ghost
exchanges copy real data between slices, and every message and collective is
recorded in the :class:`~repro.perfmodel.CostLedger` so the machine models can
price the run.  The API mirrors the MPI idioms of the mpi4py guide
(point-to-point exchanges derived from a communication pattern; inner
products reduce through :class:`~repro.distributed.ops.DistributedOps`).
"""

from repro.comm.communicator import Communicator, CommStats, RetryPolicy
from repro.comm.pattern import CommunicationPattern, ExchangeSpec
from repro.comm.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    InProcessBackend,
    MultiprocessBackend,
    resolve_backend,
)

__all__ = [
    "BACKEND_NAMES",
    "Communicator",
    "CommStats",
    "ExecutionBackend",
    "InProcessBackend",
    "MultiprocessBackend",
    "RetryPolicy",
    "CommunicationPattern",
    "ExchangeSpec",
    "resolve_backend",
]
