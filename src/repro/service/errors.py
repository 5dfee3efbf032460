"""Typed faults of the serving layer.

The service speaks its own small taxonomy, parallel to
:mod:`repro.resilience.errors`: every rejection or abnormal job ending is a
:class:`ServiceFault` subclass carrying a machine-readable ``reason`` plus
context, so clients (and the chaos tests) can branch on *why* without
parsing messages.  Solver-side failures keep their
:class:`~repro.resilience.errors.SolverFault` types — the service wraps
them into terminal job statuses, it never re-raises them at submitters.
"""

from __future__ import annotations


class ServiceFault(RuntimeError):
    """Base class for typed serving-layer faults.

    ``reason`` is a stable machine-readable slug (e.g. ``"rate-limit"``);
    ``context`` carries structured details for logs and tests.
    """

    reason = "service"

    def __init__(self, message: str, **context) -> None:
        super().__init__(message)
        self.context = context

    def __str__(self) -> str:
        base = super().__str__()
        if not self.context:
            return base
        details = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
        return f"{base} [{details}]"


class ServiceOverload(ServiceFault):
    """Admission refused the job: load shedding, not a solver failure.

    ``reason`` distinguishes the shed cause: ``"tenant-queue-full"``,
    ``"global-queue-full"``, ``"rate-limit"``, or ``"draining"``.  When the
    service recorded the rejection, the shed :class:`~repro.service.job
    .JobRecord` rides along as ``record``.
    """

    def __init__(self, message: str, *, reason: str, record=None, **context) -> None:
        super().__init__(message, reason=reason, **context)
        self.reason = reason
        self.record = record


class UnknownJob(ServiceFault):
    """A job id the service has never seen (or has already forgotten)."""

    reason = "unknown-job"


class ServiceShutdown(ServiceFault):
    """The service is stopped; no further submissions are possible."""

    reason = "shutdown"
