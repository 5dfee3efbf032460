"""The in-process backend: the historical single-process simulation.

Ranks are slices of the driver process and a transfer is an array copy, so
this backend is bit-identical *and* cost-identical to the pre-backend
behavior.  It has no transport: the ghost exchange runs on the driver on
every backend, and under a fault plan its transfers are ghost edges of the
delivery round (:mod:`repro.comm.delivery`), which carry no frame and take
each attempt's fate from the plan.
"""

from __future__ import annotations

from repro.comm.backends.base import ExecutionBackend


class InProcessBackend(ExecutionBackend):
    """Simulated ranks inside the driver process (the default)."""

    name = "inprocess"
    is_real = False
