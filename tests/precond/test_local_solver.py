"""The seam where subdomain set-up and local solves run
(:class:`repro.precond.local.LocalSolver`): whichever route it picks —
driver, rank processes, driver set-up then rank solves under a fault plan —
the factors and the solves are bitwise the in-process ones, and the rounds
on the pipes are exactly the single ship path's.
"""

import ast
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import faults, obs
from repro.comm.backends import pool
from repro.comm.communicator import Communicator
from repro.distributed.matrix import distribute_matrix
from repro.distributed.partition_map import PartitionMap
from repro.factor import cache as factor_cache
from repro.precond.block_jacobi import BlockPreconditioner, block_krylov

NRANKS = 3
PRECOND_SRC = Path(__file__).parents[2] / "src" / "repro" / "precond"


@pytest.fixture(scope="module")
def system(tiny_case):
    membership = tiny_case.membership(NRANKS, seed=0)
    pm = PartitionMap(tiny_case.coupling_graph, membership, num_ranks=NRANKS)
    dmat = distribute_matrix(tiny_case.matrix, pm)
    return pm, dmat, pm.to_distributed(tiny_case.rhs)


@pytest.fixture()
def cold_cache():
    """The process-wide factor cache, on and empty; restored afterwards."""
    cache = factor_cache.get_cache()
    prior = cache.enabled
    factor_cache.configure(enabled=True)
    cache.clear()
    yield cache
    cache.clear()
    factor_cache.configure(enabled=prior)


@contextmanager
def _rounds():
    """Yields a list that holds, once the block has ended, the op names of
    the ``comm.worker.round`` events emitted inside it, in order."""
    ops: list[str] = []
    with obs.tracing() as tracer:
        yield ops
    events = list(tracer.orphan_events)
    for span in tracer.spans:
        events.extend(span.events)
    events.sort(key=lambda e: e["t"])
    ops.extend(e["attrs"]["op"] for e in events if e["name"] == "comm.worker.round")


def _assert_same_factors(got, want):
    assert len(got) == len(want)
    for f, g in zip(got, want):
        for a, b in ((f.l_strict, g.l_strict), (f.u_upper, g.u_upper)):
            assert a.indptr.tobytes() == b.indptr.tobytes()
            assert a.indices.tobytes() == b.indices.tobytes()
            assert a.data.tobytes() == b.data.tobytes()
        assert f.stats.floored_pivots == g.stats.floored_pivots


@pytest.mark.parametrize("ordering", ["natural", "rcm"])
@pytest.mark.parametrize("variant", ["ilu0", "ilut"])
class TestContract:
    def _build(self, system, comm, variant, ordering):
        _, dmat, _ = system
        return BlockPreconditioner(dmat, comm, variant=variant, ordering=ordering)

    def _reference(self, system, variant, ordering):
        pm, _, r = system
        ref = self._build(system, Communicator(NRANKS), variant, ordering)
        assert ref.where == ref.local_solver.where == "driver"
        return ref, ref.local_solver.solve(pm.layout, r)

    def _check(self, system, solver, ref, z_ref, first_solve_ops):
        """Factors, then two solves: the first may ship, the second never."""
        pm, _, r = system
        _assert_same_factors(solver.factors, ref.factors)
        assert solver.keys == ref.local_solver.keys
        with _rounds() as first:
            z = solver.solve(pm.layout, r)
        assert first == first_solve_ops
        assert z.tobytes() == z_ref.tobytes()
        with _rounds() as second:
            z = solver.solve(pm.layout, r)
        assert second == ["apply"]
        assert z.tobytes() == z_ref.tobytes()

    def test_cold_cache_factors_in_the_ranks(
        self, system, cold_cache, variant, ordering
    ):
        ref, z_ref = self._reference(system, variant, ordering)
        cold_cache.clear()
        comm = Communicator(NRANKS, backend="multiprocess")
        try:
            with _rounds() as setup:
                solver = self._build(system, comm, variant, ordering).local_solver
            assert solver.where == "worker"
            assert setup == ["load-matrix", "factor"]
            self._check(system, solver, ref, z_ref, ["apply"])
        finally:
            comm.close()

    def test_warm_cache_ships_at_the_first_solve(
        self, system, cold_cache, variant, ordering
    ):
        ref, z_ref = self._reference(system, variant, ordering)
        warmer = Communicator(NRANKS, backend="multiprocess")
        try:
            self._build(system, warmer, variant, ordering)
        finally:
            warmer.close()
        pool.drain()  # a new world: the factors are in the cache, not the ranks
        comm = Communicator(NRANKS, backend="multiprocess")
        try:
            with _rounds() as setup:
                solver = self._build(system, comm, variant, ordering).local_solver
            assert solver.where == "worker"
            assert setup == []
            self._check(system, solver, ref, z_ref, ["load-factor", "apply"])
        finally:
            comm.close()

    def test_fault_plan_pins_setup_to_the_driver(
        self, system, cold_cache, variant, ordering
    ):
        ref, z_ref = self._reference(system, variant, ordering)
        cold_cache.clear()
        plan = faults.FaultPlan(faults.FaultSpec("ghost-drop", count=1))
        comm = Communicator(NRANKS, backend="multiprocess")
        try:
            with _rounds() as setup, faults.inject(plan):
                solver = self._build(system, comm, variant, ordering).local_solver
            assert solver.where == "driver"
            assert setup == []
            assert not plan.injected
            self._check(system, solver, ref, z_ref, ["load-factor", "apply"])
        finally:
            comm.close()


class TestBlockKrylov:
    def test_warm_set_up_ships_no_factor_nobody_applies(self, system, cold_cache):
        """Block K sweeps on the driver inside its local GMRES: no rank ever
        needs its factor, so none travels."""
        pm, dmat, r = system
        z_ref = block_krylov(dmat, Communicator(NRANKS)).apply(r)
        warmer = Communicator(NRANKS, backend="multiprocess")
        try:
            with _rounds() as cold:
                block_krylov(dmat, warmer)
            assert cold == ["load-matrix", "factor"]
        finally:
            warmer.close()
        comm = Communicator(NRANKS, backend="multiprocess")
        try:
            with _rounds() as warm:
                m = block_krylov(dmat, comm)
                z = m.apply(r)
                m.apply(r)
            assert warm == []
            assert z.tobytes() == z_ref.tobytes()
        finally:
            comm.close()


class TestOneSeam:
    """Hygiene: the wire is known to one module under ``repro/precond``."""

    #: the factor codec and the compute module's shipping surface, as attributes
    WIRE_CALLS = {
        "to_wire", "from_wire", "ship", "load_matrix", "load_factor",
        "apply_factors",
    }
    #: the wire meta keys, as string literals
    WIRE_KEYS = {
        "has_perm", "floored_pivots", "matrix_key", "factor_key", "nrows", "ncols",
    }

    @staticmethod
    def _trees():
        for path in sorted(PRECOND_SRC.glob("*.py")):
            yield path.name, ast.parse(path.read_text())

    @staticmethod
    def _imports(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield node.module
                yield from (f"{node.module}.{alias.name}" for alias in node.names)

    def test_block_jacobi_is_algebra(self):
        path = PRECOND_SRC / "block_jacobi.py"
        imported = set(self._imports(ast.parse(path.read_text())))
        assert not imported & {"repro.comm.compute", "repro.factor.cache"}
        assert len(path.read_text().splitlines()) <= 240

    def test_only_the_seam_knows_the_wire(self):
        sites = set()
        for name, tree in self._trees():
            if {"repro.comm.compute", "repro.factor.cache"} & set(self._imports(tree)):
                sites.add((name, "import"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr in self.WIRE_CALLS:
                    sites.add((name, node.attr))
                elif isinstance(node, ast.Constant) and node.value in self.WIRE_KEYS:
                    sites.add((name, node.value))
        assert {name for name, _ in sites} == {"local.py"}

    def test_only_the_seam_asks_where_ranks_run(self):
        askers = {
            name
            for name, tree in self._trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "is_real"
        }
        assert askers == {"local.py"}
