"""Determinism checker: bitwise repeat / cross-tier / backend gates."""

import json

import numpy as np
import pytest

from repro import kernels, obs
from repro.analysis.determinism import (
    DETERMINISM_SCHEMA,
    Check,
    DeterminismReport,
    _digest,
    check_determinism,
)
from repro.cases import CASE_BUILDERS
from repro.factor import cache as factor_cache


@pytest.fixture(scope="module")
def tiny_report():
    case = CASE_BUILDERS["tc1"](n=9)
    return check_determinism(
        [case], nparts=2, tiers=("reference", "numpy"), maxiter=100,
    )


class TestDigest:
    def test_bitwise_sensitivity(self):
        x = np.linspace(0.0, 1.0, 8)
        y = x.copy()
        assert _digest(x) == _digest(y)
        y[3] = np.nextafter(y[3], 2.0)  # one ulp
        assert _digest(x) != _digest(y)

    def test_dtype_and_shape_matter(self):
        x = np.zeros(4)
        assert _digest(x) != _digest(x.astype(np.float32))
        assert _digest(x) != _digest(x.reshape(2, 2))


class TestCheckMatrix:
    def test_tc1_is_bitwise_deterministic(self, tiny_report):
        failures = tiny_report.failures()
        assert tiny_report.identical, [c.to_dict() for c in failures]

    def test_all_check_kinds_present(self, tiny_report):
        kinds = {c.kind for c in tiny_report.checks}
        assert kinds == {"repeat", "cross-tier", "factors", "apply", "backend"}
        # one repeat check per tier
        assert len([c for c in tiny_report.checks if c.kind == "repeat"]) == 2

    def test_cache_left_in_prior_state(self):
        prior = factor_cache.get_cache().enabled
        case = CASE_BUILDERS["tc1"](n=9)
        check_determinism([case], nparts=2, tiers=("reference",), maxiter=50)
        assert factor_cache.get_cache().enabled == prior

    def test_report_schema(self, tiny_report, tmp_path):
        out = tiny_report.write_json(tmp_path / "det.json")
        doc = json.loads(out.read_text())
        assert doc["schema"] == DETERMINISM_SCHEMA
        assert doc["identical"] is True
        assert doc["tiers"] == ["reference", "numpy"]
        for check in doc["checks"]:
            assert {"kind", "case", "identical"} <= set(check)

    def test_summary_readable(self, tiny_report):
        text = tiny_report.summary()
        assert "identical" in text and "tc1" in text


class TestReportAggregation:
    def test_single_mismatch_fails_report(self):
        report = DeterminismReport(nparts=2, tiers=("reference",))
        report.checks.append(Check(kind="repeat", case="x", identical=True))
        assert report.identical
        report.checks.append(Check(kind="backend", case="x", identical=False))
        assert not report.identical
        assert len(report.failures()) == 1


class TestAvailableTiers:
    def test_reference_and_numpy_always_present(self):
        tiers = kernels.available_tiers()
        assert tiers[:2] == ("reference", "numpy")


def test_backend_check_digests_the_solve_only(tiny_report):
    # factors are driver-built under either backend; rank-built ones are
    # pinned by tests/precond/test_local_solver.py::TestContract
    (check,) = [c for c in tiny_report.checks if c.kind == "backend"]
    for digests in check.detail["digests"].values():
        assert set(digests) == {"x", "residuals", "iterations", "status"}


def test_every_repeat_distributes_afresh():
    # a distribution remembered from the first run would make the second
    # reproduce vacuously: each solve must build its own
    case = CASE_BUILDERS["tc1"](n=9)
    with obs.tracing() as tracer:
        report = check_determinism(
            [case], nparts=2, tiers=("numpy",), maxiter=50, checks=("repeat",),
        )
    assert report.identical
    memo = [s.attrs["memo"] for s in tracer.spans if s.name == "distribute"]
    assert memo == ["miss", "miss"]
