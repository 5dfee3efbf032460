"""E2 (extension): accelerator comparison — FGMRES(20) vs BiCGStab.

pARMS ships both accelerators; the paper standardizes on (F)GMRES(20).  This
bench quantifies the choice on the unsymmetric convection case: BiCGStab does
two matvecs + two preconditioner applies per iteration, so the comparison is
made in simulated time, not raw counts.
"""

from repro.cases.convection2d import convection2d_case
from repro.comm.communicator import Communicator
from repro.core import stages
from repro.core.driver import make_preconditioner
from repro.core.reporting import format_paper_table
from repro.distributed.ops import DistributedOps
from repro.krylov.bicgstab import bicgstab
from repro.krylov.fgmres import fgmres
from repro.perfmodel.machine import LINUX_CLUSTER

from common import emit, scaled_n

P_VALUES = [2, 4, 8]


def _run(case, accel, p):
    dmat = stages.distribute(case, p)
    pm = dmat.pm
    comm = Communicator(p)
    M = make_preconditioner("block2", dmat, comm, case)
    comm.reset_ledger()
    ops = DistributedOps(comm, pm.layout)
    solver = fgmres if accel == "FGMRES(20)" else bicgstab
    kwargs = {"restart": 20} if accel == "FGMRES(20)" else {}
    res = solver(
        lambda v: dmat.matvec(comm, v),
        pm.to_distributed(case.rhs),
        apply_m=M.apply,
        x0=pm.to_distributed(case.x0),
        rtol=1e-6,
        maxiter=500,
        ops=ops,
        **kwargs,
    )
    return res, LINUX_CLUSTER.time(comm.ledger)


def test_accelerator_comparison(benchmark):
    case = convection2d_case(n=scaled_n(65))

    def run():
        cols = {}
        for accel in ("FGMRES(20)", "BiCGStab"):
            col = {}
            for p in P_VALUES:
                res, t = _run(case, accel, p)
                col[p] = (res.iterations if res.converged else None, t)
            cols[accel] = col
        return cols

    cols = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "E2-accelerators",
        format_paper_table(
            f"{case.title} — Block 2-preconditioned accelerators", P_VALUES, cols
        ),
    )

    for p in P_VALUES:
        assert cols["FGMRES(20)"][p][0] is not None
        assert cols["BiCGStab"][p][0] is not None
