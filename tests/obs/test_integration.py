"""End-to-end accounting: spans recorded by a real solve must attribute
every ledger charge (setup + solve) exactly once — the contract of
docs/observability.md."""

import pytest

from repro import obs
from repro.cases.poisson2d import poisson2d_case
from repro.core.driver import solve_case
from repro.obs.metrics import conservation_error, sum_exclusive


def _merged_counts(out):
    totals = out.setup_ledger.counts()
    for key, value in out.solve_ledger.counts().items():
        totals[key] += value
    return totals


@pytest.fixture(scope="module")
def traced_schur1():
    case = poisson2d_case(n=17)
    with obs.tracing() as tracer:
        out = solve_case(case, precond="schur1", nparts=4)
    return tracer, out


class TestTracedSolve:
    def test_span_name_contract(self, traced_schur1):
        tracer, _ = traced_schur1
        names = {s.name for s in tracer.spans}
        assert {
            "solve_case", "partition", "distribute", "precond.setup",
            "krylov.solve", "precond.apply", "schur.forward", "schur.solve",
            "schur.back", "comm.exchange", "dist.matvec",
        } <= names

    def test_root_span_attrs(self, traced_schur1):
        tracer, out = traced_schur1
        root = next(s for s in tracer.spans if s.name == "solve_case")
        assert root.attrs["precond"] == "schur1"
        assert root.attrs["nparts"] == 4
        assert root.attrs["iterations"] == out.iterations
        assert root.attrs["converged"] == out.converged

    def test_ledger_conservation(self, traced_schur1):
        # the acceptance-criteria invariant: per-span deltas sum to the
        # run's total CostLedger (setup + solve)
        tracer, out = traced_schur1
        assert conservation_error(tracer.spans, _merged_counts(out)) < 1e-12

    def test_setup_and_solve_spans_partition_phases(self, traced_schur1):
        tracer, out = traced_schur1
        setup = next(s for s in tracer.spans if s.name == "precond.setup")
        solve = next(s for s in tracer.spans if s.name == "krylov.solve")
        assert setup.ledger["crit_flops"] == pytest.approx(
            out.setup_ledger.crit_flops
        )
        assert solve.ledger["crit_flops"] == pytest.approx(
            out.solve_ledger.crit_flops
        )
        assert solve.ledger["allreduces"] == out.solve_ledger.allreduces

    def test_iteration_events_recorded(self, traced_schur1):
        tracer, out = traced_schur1
        solve = next(s for s in tracer.spans if s.name == "krylov.solve")
        iters = [e for e in solve.events if e["name"] == "krylov.iteration"]
        assert len(iters) == out.iterations
        starts = [e for e in solve.events if e["name"] == "krylov.start"]
        assert starts and starts[0]["attrs"]["residual"] == out.residuals[0]

    def test_inner_schur_events_nested(self, traced_schur1):
        tracer, _ = traced_schur1
        inner = [s for s in tracer.spans if s.name == "schur.solve"]
        assert inner
        assert all(
            any(e["name"] == "krylov.iteration" for e in s.events)
            for s in inner
        )

    def test_allreduce_events_attributed(self, traced_schur1):
        tracer, out = traced_schur1
        n_events = sum(
            sum(1 for e in s.events if e["name"] == "comm.allreduce")
            for s in tracer.spans
        )
        total = _merged_counts(out)
        assert n_events == total["allreduces"]


@pytest.mark.parametrize("precond", ["block2", "schur2", "as"])
def test_conservation_other_preconditioners(precond):
    case = poisson2d_case(n=13)
    with obs.tracing() as tracer:
        out = solve_case(case, precond=precond, nparts=4, maxiter=300)
    assert conservation_error(tracer.spans, _merged_counts(out)) < 1e-12
    assert sum_exclusive(tracer.spans)["crit_flops"] > 0


@pytest.mark.parametrize(
    "precond", ["block1", "block2", "schur1", "schur2", "as", "blocko"]
)
def test_one_setup_span_per_setup(precond):
    # the span opens in make_preconditioner and nowhere else: the driver
    # does not wrap it and no preconditioner class opens its own
    case = poisson2d_case(n=13)
    with obs.tracing() as tracer:
        out = solve_case(case, precond=precond, nparts=4, maxiter=300)
    (setup,) = [s for s in tracer.spans if s.name == "precond.setup"]
    assert setup.attrs == {"precond": precond, "where": "driver"}
    assert setup.ledger["crit_flops"] == pytest.approx(out.setup_ledger.crit_flops)
    assert conservation_error(tracer.spans, _merged_counts(out)) < 1e-12


def test_setup_span_says_when_the_ranks_factored():
    case = poisson2d_case(n=13)
    with obs.tracing() as tracer:
        solve_case(case, precond="block1", nparts=2, backend="multiprocess")
    (setup,) = [s for s in tracer.spans if s.name == "precond.setup"]
    assert setup.attrs == {"precond": "block1", "where": "worker"}


def test_transient_build_opens_the_same_single_span():
    from repro.core.transient import TransientHeatSolver
    from repro.mesh.grid2d import structured_rectangle

    mesh = structured_rectangle(9, 9)
    with obs.tracing() as tracer:
        ths = TransientHeatSolver(
            mesh, dt=0.02, dirichlet_nodes=mesh.all_boundary_nodes(),
            precond="schur1", nparts=2,
        )
        ths.close()
    (setup,) = [s for s in tracer.spans if s.name == "precond.setup"]
    assert setup.attrs == {"precond": "schur1", "where": "driver"}


def test_untraced_solve_records_nothing():
    case = poisson2d_case(n=9)
    solve_case(case, precond="block1", nparts=2)
    assert not obs.enabled()
    assert obs.get_tracer().span("x") is obs.get_tracer().span("y")
