"""FGMRES(``restart``) is the only outer solver on every solve path."""

import dataclasses
import inspect

import pytest

from repro import CASE_BUILDERS, obs, solve_case
from repro.cli import main
from repro.core import stages
from repro.krylov import bicgstab
from repro.service import runner
from repro.service.service import ServiceConfig


def test_no_solve_path_takes_a_solver_choice():
    assert "solver" not in inspect.signature(solve_case).parameters
    assert "solver" not in inspect.signature(stages.krylov).parameters
    assert "apply_ma" not in inspect.signature(bicgstab).parameters
    assert not hasattr(stages, "SOLVERS") and not hasattr(stages, "SOLVER_NAMES")
    with pytest.raises(TypeError, match="solver"):
        solve_case(CASE_BUILDERS["tc1"](9), "block1", nparts=2, solver="cg")


@pytest.mark.parametrize("restart", [20, 5])
def test_krylov_span_names_fgmres_and_its_restart(restart):
    with obs.tracing() as tracer:
        out = solve_case(CASE_BUILDERS["tc1"](9), "block1", nparts=2,
                         restart=restart)
    assert out.converged
    (span,) = [s for s in tracer.spans if s.name == "krylov.solve"]
    assert span.attrs["solver"] == f"fgmres({restart})"


def test_cli_solve_has_no_solver_flag(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--case", "tc1", "--size", "9", "--solver", "cg"])
    assert "unrecognized arguments: --solver" in capsys.readouterr().err
    assert main(["solve", "--case", "tc1", "--size", "9", "--nparts", "2",
                 "--precond", "block1"]) == 0
    assert "fgmres iterations" in capsys.readouterr().out


def test_service_chunking_is_constant_not_configured():
    removed = {"chunk_iters", "job_retries", "retry_backoff_s", "checkpoint"}
    assert not removed & {f.name for f in dataclasses.fields(ServiceConfig)}
    assert not removed & {f.name for f in dataclasses.fields(runner.RunnerContext)}
    assert (runner.CHUNK_ITERS, runner.JOB_RETRIES, runner.RETRY_BACKOFF_S) \
        == (100, 1, 0.05)
    assert runner.CHUNK_ITERS % runner.RESTART == 0
