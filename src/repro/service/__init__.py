"""The multi-tenant solve service (``docs/service.md``).

Quickstart::

    from repro.service import JobSpec, ServiceConfig, SolveService

    with SolveService(ServiceConfig(workers=2)) as svc:
        record = svc.submit(JobSpec(case="tc1", size=17, precond="schur1"))
        svc.wait(record.job_id, timeout=60.0)
        print(record.status, record.iterations)

``repro serve`` wraps the same service as a process with graceful
SIGTERM drain; see :mod:`repro.service.serve`.
"""

from repro.service.admission import AdmissionController, TenantPolicy, TokenBucket
from repro.service.breaker import BreakerBoard
from repro.service.deadline import (
    Deadline,
    IterationRateEstimator,
    iteration_budget,
    scaled_retry_policy,
)
from repro.service.errors import (
    ServiceFault,
    ServiceOverload,
    ServiceShutdown,
    UnknownJob,
)
from repro.service.job import (
    JOB_STATUSES,
    TERMINAL_STATUSES,
    JobRecord,
    JobSpec,
    JobUpdate,
)
from repro.service.service import DRAIN_SCHEMA, ServiceConfig, SolveService
from repro.service.workload import synthetic_jobs

__all__ = [
    "AdmissionController",
    "TenantPolicy",
    "TokenBucket",
    "BreakerBoard",
    "Deadline",
    "IterationRateEstimator",
    "iteration_budget",
    "scaled_retry_policy",
    "ServiceFault",
    "ServiceOverload",
    "ServiceShutdown",
    "UnknownJob",
    "JOB_STATUSES",
    "TERMINAL_STATUSES",
    "JobSpec",
    "JobRecord",
    "JobUpdate",
    "DRAIN_SCHEMA",
    "ServiceConfig",
    "SolveService",
    "synthetic_jobs",
]
