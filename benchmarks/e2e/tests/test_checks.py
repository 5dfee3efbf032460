"""The checker must reject what is wrong, not only accept what is right."""

import numpy as np
import pytest

from repro import CASE_BUILDERS, solve_case

import checks
from pipeline import Solved, explicit_solve
from spans import SpanRecorder


@pytest.fixture(scope="module")
def solved_case():
    case = CASE_BUILDERS["tc1"](13)
    out = solve_case(case, "schur1", nparts=2)
    solved = Solved(x=out.x_global, iterations=out.iterations, status=out.status)
    kwargs = dict(matrix=case.matrix, rhs=case.rhs, x0=case.x0, rtol=1e-6,
                  exact=case.exact, err_bound=5e-4)
    return case, solved, kwargs


def test_a_correct_solution_passes(solved_case):
    _, solved, kwargs = solved_case
    assert checks.check_solution(solved, **kwargs) == []
    assert checks.check_solution(solved, twin=solved.x.copy(), **kwargs) == []


def test_a_perturbed_solution_is_rejected(solved_case):
    _, solved, kwargs = solved_case
    x = solved.x.copy()
    x[x.size // 2] += 1e-2
    fails = checks.check_solution(Solved(x=x, iterations=1, status="converged"), **kwargs)
    assert any("residual" in f for f in fails) and any("max error" in f for f in fails)


def test_one_flipped_bit_fails_the_twin_check(solved_case):
    _, solved, kwargs = solved_case
    twin = solved.x.copy()
    twin[3] = np.nextafter(twin[3], np.inf)
    assert checks.check_solution(solved, twin=twin, **kwargs) \
        == ["differs bitwise from the in-process twin"]


def test_status_nan_and_exceptions_are_failures(solved_case):
    _, solved, kwargs = solved_case
    assert checks.check_solution(
        Solved(x=solved.x, iterations=3, status="maxiter"), **kwargs
    ) == ["status 'maxiter'"]
    bad = solved.x.copy()
    bad[0] = np.nan
    assert "solution missing or non-finite" in checks.check_solution(
        Solved(x=bad, iterations=3, status="converged"), **kwargs)
    assert checks.check_solution(
        Solved(x=None, iterations=0, status="raised", error="Boom: x"), **kwargs
    ) == ["raised Boom: x"]


def test_service_jobs_are_checked_on_what_the_service_reports():
    ok = Solved(x=None, iterations=5, status="converged", relres=3e-7)
    assert checks.check_job(ok, rtol=1e-6) == []
    assert checks.check_job(Solved(x=None, iterations=5, status="shed"), rtol=1e-6)
    assert checks.check_job(
        Solved(x=None, iterations=5, status="converged", relres=1e-3), rtol=1e-6)


def test_repeat_check_wants_equal_iterations_for_equal_inputs():
    repeats = checks.RepeatCheck()
    assert repeats.check(("schur1", 4), 17) == []
    assert repeats.check(("schur1", 5), 18) == []
    assert repeats.check(("schur1", 4), 17) == []
    assert repeats.check(("schur1", 4), 16)


def test_explicit_pipeline_is_bitwise_equal_to_solve_case(solved_case):
    case, solved, _ = solved_case
    explicit = explicit_solve(SpanRecorder(), 0, case, "schur1", 2, 0)
    assert checks.check_equivalent(solved, explicit) == []
    explicit.x = explicit.x + 1e-15
    explicit.iterations += 1
    fails = checks.check_equivalent(solved, explicit)
    assert len(fails) == 2
    assert checks.check_equivalent(solved, explicit, bitwise=False) == [fails[0]]
