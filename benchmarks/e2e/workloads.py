"""The five workloads: what one operation is, and how it is checked.

Each workload is an endless, seed-determined list of operations made of
equal *cycles* (one pass over its op kinds).  ``run`` executes an op through
the entry point a user calls and is all the untraced run ever does; ``trace``
re-executes it as the explicit pipeline of ``pipeline.py``.  The first
``min_cycles`` cycles always run, so the exact counts (iterations, messages,
modelled seconds) summed over them repeat exactly for a given seed however
fast the machine is.

Scales: ``bench`` is what BENCHMARK.json measures (sized so that set-up plus
``run_seconds`` of ops fit the driver's time cap), ``smoke`` is for the
self-tests.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

from repro import CASE_BUILDERS, LINUX_CLUSTER, solve_case
from repro.core.transient import TransientHeatSolver
from repro.factor.cache import get_cache
from repro.service import JobSpec, ServiceConfig, SolveService

from checks import RepeatCheck, check_job, check_solution
from host import RESULTS
from pipeline import ExplicitMarch, Solved, explicit_solve
from spans import SpanRecorder

SCALES = ("smoke", "bench")


@dataclass(frozen=True)
class Op:
    index: int
    kind: str            # the preconditioner this op uses
    seed: int            # partition seed (job seed for service jobs)
    clear_cache: bool = False
    tenant: str = "default"


class Workload:
    """Common shape; see the module docstring."""

    name = ""
    why = ""
    clients = 1            # load-generating threads (closed loop)
    backend: str | None = None    # the Communicator backend ops run on
    #: Run the workload's process on one core; see SetupBound for the one use.
    one_core = False
    home_cores: set[int] | None = None   # the cores it had before, when pinned
    rtol = 1e-6
    sizes: dict[str, dict] = {}
    kinds: tuple[str, ...] = ()   # one cycle, in order
    #: (layer metric, lowest share, highest share) of the traced op wall
    predictions: tuple[tuple[str, float, float], ...] = ()
    #: whether the explicit pipeline can be compared bit for bit
    bitwise = True

    def __init__(self, seed: int, scale: str) -> None:
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; pick from {SCALES}")
        self.seed, self.scale = seed, scale
        self.p = self.sizes[scale]
        self.rec = SpanRecorder()
        self.repeats = RepeatCheck()

    @property
    def cycle_len(self) -> int:
        return len(self.kinds)

    @property
    def min_ops(self) -> int:
        return self.p["min_cycles"] * self.cycle_len

    def op(self, index: int) -> Op:
        return Op(index, self.kinds[index % self.cycle_len], self.seed)

    def setup(self) -> None:
        raise NotImplementedError

    def setup_traced(self) -> None:
        """Extra set-up only the traced run needs (never inside ``setup_s``)."""

    def run(self, op: Op) -> Solved:
        raise NotImplementedError

    def trace(self, op: Op) -> Solved:
        raise NotImplementedError

    def check(self, op: Op, solved: Solved) -> list[str]:
        raise NotImplementedError

    def probe_args(self) -> tuple:
        """(case, nparts, membership, precond) for the one-off layer probes."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class _SolveCaseWorkload(Workload):
    """Ops that are one ``solve_case`` call on a fixed case."""

    case_key = ""
    membership: np.ndarray | None = None   # None: solve_case partitions per op

    def _build(self) -> None:
        with self.rec.span("cases.build"):
            self.case = CASE_BUILDERS[self.case_key](self.p["n"])

    def _partition(self) -> None:
        with self.rec.span("graph.partition"):
            self.membership = self.case.membership(self.p["nparts"], seed=self.seed)

    def run(self, op: Op) -> Solved:
        if op.clear_cache:
            get_cache().clear()
        t0 = time.perf_counter()
        out = solve_case(
            self.case, op.kind, nparts=self.p["nparts"], seed=op.seed,
            membership=self.membership, backend=self.backend,
        )
        wall = time.perf_counter() - t0
        return Solved(
            x=out.x_global, iterations=out.iterations, status=out.status,
            wall=wall, sim_s=out.sim_time(LINUX_CLUSTER),
        )

    def trace(self, op: Op) -> Solved:
        if op.clear_cache:
            get_cache().clear()
        return explicit_solve(
            self.rec, op.index, self.case, op.kind, self.p["nparts"], op.seed,
            membership=self.membership, backend=self.backend,
        )

    def check(self, op: Op, solved: Solved, twin: np.ndarray | None = None) -> list[str]:
        case = self.case
        return check_solution(
            solved, matrix=case.matrix, rhs=case.rhs, x0=case.x0, rtol=self.rtol,
            exact=case.exact, err_bound=self.p["err_bound"], twin=twin,
        ) + self.repeats.check((op.kind, op.seed), solved.iterations)

    def probe_args(self) -> tuple:
        membership = self.membership
        if membership is None:
            membership = self.case.membership(self.p["nparts"], seed=self.seed)
        return self.case, self.p["nparts"], membership, self.kinds[0]


class TableSweep(_SolveCaseWorkload):
    name = "table_sweep"
    why = ("default solve_case per table cell, as run_sweep and the quickstart do: "
           "the partitioner is re-run for every cell and does most of the work")
    case_key = "tc1"
    kinds = ("block1", "block2", "schur1", "schur2")
    sizes = {
        "smoke": dict(n=17, nparts=4, min_cycles=1, err_bound=5e-4),
        "bench": dict(n=51, nparts=8, min_cycles=2, err_bound=5e-4),
    }
    predictions = (("graph.partition_s", 0.50, 1.0),)

    def setup(self) -> None:
        self._build()
        # imports and lazy initialisation happen off the clock
        solve_case(CASE_BUILDERS["tc1"](9), "schur1", nparts=2)

    def op(self, index: int) -> Op:
        cycle, j = divmod(index, self.cycle_len)
        # every pass partitions afresh (seed + pass) and starts cache-cold
        return Op(index, self.kinds[j], self.seed + cycle, clear_cache=(j == 0))


class SetupBound(_SolveCaseWorkload):
    name = "setup_bound"
    why = ("3D Poisson with the partition given and the factor cache cleared before "
           "every op: factor/kernels/precond set-up does the work, graph does none")
    case_key = "tc2"
    kinds = ("block2", "schur1", "schur2")
    #: This workload exists to expose the cost of the factor/kernels/precond
    #: set-up code.  That code runs on a thread pool sized by os.cpu_count();
    #: it is interpreter-bound, so on two cores its threads pass the GIL back
    #: and forth and the same op takes 0.38-0.56 s from one run to the next
    #: (0.29-0.35 s on one core); the gated timings of ten runs then spread
    #: 14-18 %, against 3-9 % pinned.  What the second core costs is reported
    #: as host.unpinned_over_pinned; the default, unpinned use of the same
    #: pool is in table_sweep's gated metrics.
    one_core = True
    sizes = {
        "smoke": dict(n=7, nparts=4, min_cycles=1, err_bound=5e-3),
        "bench": dict(n=15, nparts=8, min_cycles=2, err_bound=1e-3),
    }
    predictions = (("graph.partition_s", 0.0, 0.0), ("precond.setup_s", 0.70, 1.0))

    def setup(self) -> None:
        self._build()
        self._partition()
        solve_case(self.case, "schur1", nparts=self.p["nparts"], membership=self.membership)

    def op(self, index: int) -> Op:
        return Op(index, self.kinds[index % self.cycle_len], self.seed, clear_cache=True)


class MpRanks(_SolveCaseWorkload):
    name = "mp_ranks"
    why = ("solve_case on the multiprocess backend, two rank processes: the only "
           "workload where comm/backends (spawn, ship-once store, pipe rounds) does the work")
    case_key = "tc1"
    backend = "multiprocess"
    kinds = ("block1", "block1", "schur1")
    sizes = {
        "smoke": dict(n=17, nparts=2, min_cycles=1, err_bound=5e-4),
        "bench": dict(n=101, nparts=2, min_cycles=2, err_bound=5e-4),
    }

    def setup(self) -> None:
        self._build()
        self._partition()
        # the in-process twins every op must reproduce bit for bit; they also
        # fill the factor cache, so ops measure communication, not set-up
        self.twins = {
            kind: solve_case(
                self.case, kind, nparts=self.p["nparts"], membership=self.membership,
            ).x_global
            for kind in sorted(set(self.kinds))
        }
        solve_case(self.case, self.kinds[0], nparts=self.p["nparts"],
                   membership=self.membership, backend=self.backend)

    def trace(self, op: Op) -> Solved:
        solved = super().trace(op)
        with self.rec.span("comm.inprocess_twin", op=op.index):
            solve_case(self.case, op.kind, nparts=self.p["nparts"],
                       membership=self.membership)
        return solved

    def check(self, op: Op, solved: Solved) -> list[str]:
        return super().check(op, solved, twin=self.twins[op.kind])


class KrylovMarch(Workload):
    name = "krylov_march"
    why = ("implicit-Euler steps on a reused preconditioner (heat_simulation.py): all "
           "Krylov loop, no partition or set-up per op; the p50 op is a block apply step, "
           "the p90 op a Schur apply step")
    kinds = ("block2",) * 5 + ("schur1",) * 2
    rtol = 1e-8
    dt = 0.05
    maxiter = 300
    sizes = {
        "smoke": dict(n=7, nparts=4, min_cycles=1),
        # 100 + 40 steps always run: memory grows with the step count
        "bench": dict(n=15, nparts=8, min_cycles=20),
    }
    predictions = (("krylov.solve_s", 0.85, 1.0),)

    def setup(self) -> None:
        with self.rec.span("cases.build"):
            self.case = CASE_BUILDERS["tc4"](self.p["n"], dt=self.dt)
        mesh = self.case.mesh
        self.solvers = {
            kind: TransientHeatSolver(
                mesh, dt=self.dt, dirichlet_nodes=mesh.boundary_set("right"),
                precond=kind, nparts=self.p["nparts"], seed=self.seed,
                rtol=self.rtol, maxiter=self.maxiter,
            )
            for kind in sorted(set(self.kinds))
        }
        self.state = {kind: self.case.x0.copy() for kind in self.solvers}
        self.before = dict(self.state)

    def setup_traced(self) -> None:
        self.explicit = {
            kind: ExplicitMarch(
                self.rec, self.case, kind, self.p["nparts"], self.seed,
                dt=self.dt, rtol=self.rtol, maxiter=self.maxiter,
            )
            for kind in self.solvers
        }
        self.explicit_state = {kind: self.case.x0.copy() for kind in self.solvers}

    def run(self, op: Op) -> Solved:
        solver, u = self.solvers[op.kind], self.state[op.kind]
        t0 = time.perf_counter()
        u_next = solver.advance(u, 1)
        wall = time.perf_counter() - t0
        step = solver.history[-1]
        self.before[op.kind], self.state[op.kind] = u, u_next
        return Solved(x=u_next, iterations=step.iterations, status=step.status, wall=wall)

    def trace(self, op: Op) -> Solved:
        solved = self.explicit[op.kind].step(self.explicit_state[op.kind], op.index)
        self.explicit_state[op.kind] = solved.x
        return solved

    def check(self, op: Op, solved: Solved) -> list[str]:
        solver, u = self.solvers[op.kind], self.before[op.kind]
        rhs = solver.op.rhs(u)
        rhs[solver.dirichlet] = 0.0
        fails = check_solution(solved, matrix=solver.matrix, rhs=rhs, x0=u, rtol=self.rtol)
        # TC4 has no closed-form solution; the heat equation must still decay
        if not fails and np.abs(solved.x).max() > np.abs(u).max() + 1e-12:
            fails.append("max|u| grew over an implicit-Euler step")
        return fails

    def probe_args(self) -> tuple:
        solver = self.solvers[self.kinds[0]]
        return self.case, self.p["nparts"], solver.membership, self.kinds[0]

    def close(self) -> None:
        for solver in self.solvers.values():
            solver.close()
        for march in getattr(self, "explicit", {}).values():
            march.close()


class ServiceClosed(Workload):
    name = "service_closed"
    why = ("small jobs through SolveService, closed loop with clients = workers = 2: service "
           "overhead and repeated (case, size, nparts, seed) tuples on a warm factor cache")
    clients = 2
    kinds = ("schur1",) * 12   # 3 tenants x 4 job seeds
    tenants = 3
    job_seeds = 4
    maxiter = 400              # JobSpec default
    bitwise = False            # a job's solution never leaves the service
    sizes = {
        "smoke": dict(n=9, nparts=2, min_cycles=1),
        "bench": dict(n=25, nparts=4, min_cycles=2),
    }

    def _spec(self, op: Op) -> JobSpec:
        return JobSpec(
            tenant=op.tenant, case="tc1", size=self.p["n"], nparts=self.p["nparts"],
            precond=op.kind, seed=op.seed,
        )

    def op(self, index: int) -> Op:
        return Op(index, self.kinds[0], self.seed + index % self.job_seeds,
                  tenant=f"tenant-{index % self.tenants}")

    def setup(self) -> None:
        # the spool must stay inside the checkout, so no tempfile default
        self.spool = RESULTS / f"spool-{os.getpid()}"
        self.spool.mkdir(parents=True, exist_ok=True)
        with self.rec.span("service.start"):
            self.svc = SolveService(
                ServiceConfig(workers=self.clients, spool_dir=str(self.spool))
            ).start()
        self.jobs: dict[int, tuple] = {}   # op index -> (JobRecord, submit seconds)
        for j in range(self.job_seeds):
            self.svc.submit(self._spec(self.op(j))).wait(timeout=60.0)

    def setup_traced(self) -> None:
        with self.rec.span("cases.build"):
            self.case = CASE_BUILDERS["tc1"](self.p["n"])

    def run(self, op: Op) -> Solved:
        t0 = time.perf_counter()
        record = self.svc.submit(self._spec(op))
        t1 = time.perf_counter()
        record.wait(timeout=60.0)
        wall = time.perf_counter() - t0
        self.jobs[op.index] = (record, t1 - t0)
        return Solved(x=None, iterations=record.iterations, status=record.status,
                      wall=wall, relres=record.final_relres)

    def trace(self, op: Op) -> Solved:
        return explicit_solve(
            self.rec, op.index, self.case, op.kind, self.p["nparts"], op.seed,
            rtol=self.rtol, maxiter=self.maxiter,
        )

    def check(self, op: Op, solved: Solved) -> list[str]:
        return check_job(solved, rtol=self.rtol) \
            + self.repeats.check((op.kind, op.seed), solved.iterations)

    def probe_args(self) -> tuple:
        membership = self.case.membership(self.p["nparts"], seed=self.seed)
        return self.case, self.p["nparts"], membership, self.kinds[0]

    def close(self) -> None:
        with self.rec.span("service.drain"):
            self.svc.drain()
        self.svc.shutdown()
        self.stats = self.svc.stats()
        self.spool_bytes = sum(
            f.stat().st_size for f in self.spool.rglob("*") if f.is_file()
        )
        shutil.rmtree(self.spool, ignore_errors=True)


WORKLOADS = {w.name: w for w in (TableSweep, SetupBound, KrylovMarch, MpRanks, ServiceClosed)}
