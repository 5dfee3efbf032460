"""The settable surface of the machinery around the solver is a closed set.

Retries, supervision, breakers, deadlines, checkpoints and the divergence
test run the paper's one procedure with one set of values, so those values
are module constants, not constructor or config parameters.  Each parameter
and config field left is pinned here, as ``tests/test_env_gates.py`` pins
the ``REPRO_*`` gates: a setting comes back only through an edit to this
file.  Tests that need another value monkeypatch the constant, which the
code reads at call time.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from repro.checkpoint import manager
from repro.comm.backends import multiprocess, supervisor
from repro.krylov import monitors
from repro.resilience import resilient
from repro.service import breaker, deadline, service

SRC = Path(__file__).parent.parent / "src" / "repro"

PARAMETERS = {
    resilient.ResilientSolver: [],
    multiprocess.MultiprocessBackend: ["size"],
    supervisor.RankSupervisor: ["size"],
    breaker.BreakerBoard: ["clock"],
    deadline.IterationRateEstimator: [],
    manager.CheckpointManager: ["directory", "prefix"],
    deadline.scaled_retry_policy: ["base", "remaining_s"],
}

FIELDS = {
    monitors.ConvergenceMonitor: ["rtol", "atol", "residuals", "_threshold"],
    service.ServiceConfig: [
        "workers", "max_total_queue", "default_policy", "drain_timeout_s",
        "spool_dir",
    ],
}

#: (module, name, value): the values the removed settings defaulted to
CONSTANTS = [
    (resilient, "MAX_RETRIES", 1),
    (resilient, "FALLBACK_CHAIN", ("schur2", "schur1", "block2", "block1", "jacobi")),
    (resilient, "SHIFT_SCALE", 1e-2),
    (supervisor, "FENCE_AFTER", 3),
    (multiprocess, "STARTUP_TIMEOUT", 15.0),
    (breaker, "FAIL_THRESHOLD", 3),
    (breaker, "COOLDOWN_S", 5.0),
    (deadline, "RATE_ALPHA", 0.3),
    (deadline, "RATE_DEFAULT_S", 1e-3),
    (deadline, "RETRY_SHARE", 0.1),
    (service, "POLL_S", 0.05),
    (manager, "KEEP", 3),
    (monitors, "DIVTOL", 1e10),
]


@pytest.mark.parametrize("target", list(PARAMETERS), ids=lambda t: t.__qualname__)
def test_parameters_are_exactly_the_pinned_ones(target):
    params = inspect.signature(target).parameters
    assert list(params) == PARAMETERS[target]


@pytest.mark.parametrize("target", list(FIELDS), ids=lambda t: t.__qualname__)
def test_config_fields_are_exactly_the_pinned_ones(target):
    assert [f.name for f in dataclasses.fields(target)] == FIELDS[target]


@pytest.mark.parametrize("module,name,value", CONSTANTS,
                         ids=[name for _m, name, _v in CONSTANTS])
def test_constants_keep_the_old_defaults(module, name, value):
    assert getattr(module, name) == value


def test_the_policy_classes_are_gone():
    pattern = re.compile(r"\b(HeartbeatPolicy|BreakerPolicy)\b")
    offenders = [
        str(p) for p in sorted(SRC.rglob("*.py")) if pattern.search(p.read_text())
    ]
    assert offenders == []
