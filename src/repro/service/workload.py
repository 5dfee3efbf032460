"""Synthetic multi-tenant workloads for the load generator and chaos tests.

Deterministic by construction: job order, tenants, and per-job parameters
are pure functions of the arguments (no RNG), so a bench or chaos run with
the same knobs submits byte-identical specs — which is what makes shed
counts and fault campaigns reproducible.
"""

from __future__ import annotations

from repro.service.job import JobSpec


def synthetic_jobs(
    n: int,
    tenants: tuple[str, ...] = ("tenant-a", "tenant-b", "tenant-c"),
    case: str = "tc1",
    size: int = 13,
    nparts: int = 2,
    precond: str = "schur1",
    rtol: float = 1e-6,
    maxiter: int = 400,
    deadline_s: float | None = None,
    backend: str | None = None,
    keyed: bool = False,
) -> list[JobSpec]:
    """``n`` jobs round-robined over ``tenants``.

    Seeds vary per job (different partitionings of the same case), so the
    factor cache sees realistic same-structure traffic without every job
    being literally identical.  ``keyed=True`` assigns idempotency keys
    (``synthetic-<i>``), which the dedup tests rely on.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not tenants:
        raise ValueError("at least one tenant is required")
    jobs = []
    for i in range(n):
        jobs.append(JobSpec(
            tenant=tenants[i % len(tenants)],
            case=case,
            size=size,
            precond=precond,
            nparts=nparts,
            rtol=rtol,
            maxiter=maxiter,
            seed=i % 4,
            deadline_s=deadline_s,
            backend=backend,
            key=f"synthetic-{i}" if keyed else None,
        ))
    return jobs
