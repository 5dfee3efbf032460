"""Krylov subspace solvers: FGMRES(m) (also in lockstep over independent
systems), CG, BiCGStab.

Solvers are written once against an injectable :class:`KernelOps` (inner
product, norm, update accounting); serial code uses the default numpy
kernels, distributed code passes :class:`repro.distributed.DistributedOps`
so every inner product is charged as an allreduce.
"""

from repro.krylov.ops import CountingOps, KernelOps, SerialOps
from repro.krylov.monitors import STATUSES, ConvergenceMonitor, KrylovResult
from repro.krylov.fgmres import fgmres, fgmres_lockstep
from repro.krylov.cg import cg
from repro.krylov.bicgstab import bicgstab
from repro.krylov.spectra import (
    condition_estimate,
    lanczos_extremes,
    power_method,
    preconditioned_condition_estimate,
)

__all__ = [
    "KernelOps",
    "SerialOps",
    "CountingOps",
    "ConvergenceMonitor",
    "KrylovResult",
    "STATUSES",
    "fgmres",
    "fgmres_lockstep",
    "cg",
    "bicgstab",
    "power_method",
    "lanczos_extremes",
    "condition_estimate",
    "preconditioned_condition_estimate",
]
