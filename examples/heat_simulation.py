#!/usr/bin/env python
"""Time-dependent heat conduction with a reused parallel preconditioner.

Extends Test Case 4 beyond the paper's single implicit step: the operator
M + Δt·K is factored once, then twenty implicit Euler steps are advanced,
each solved by FGMRES with the Schur 1 preconditioner.  Demonstrates the
production pattern for transient problems — setup cost is amortized over the
whole simulation — and verifies the discrete solution decays monotonically
like the continuous heat equation.

Run:  python examples/heat_simulation.py
"""

import numpy as np

from repro.cases.heat3d import heat3d_case
from repro.core import TransientHeatSolver
from repro.perfmodel.machine import LINUX_CLUSTER


def main() -> None:
    n, nparts, steps = 13, 4, 20
    case = heat3d_case(n=n, dt=0.05)
    mesh = case.mesh
    print(f"{case.title}: {case.num_dofs} unknowns, P = {nparts}, {steps} steps")

    # (M + dt K) u^{l} = M u^{l-1} with u = 0 at x = 1
    ths = TransientHeatSolver(
        mesh, dt=0.05, dirichlet_nodes=mesh.boundary_set("right"),
        precond="schur1", nparts=nparts, seed=0, rtol=1e-8, maxiter=200,
    )
    u = case.x0.copy()
    print(f"{'step':>5} {'FGMRES iters':>13} {'max|u|':>9} {'energy':>10}")
    for _ in range(steps):
        u_new = ths.advance(u, 1)
        rec = ths.history[-1]
        energy = float(u_new @ (ths.op.mass @ u_new))
        print(f"{rec.step:>5} {rec.iterations:>13} {rec.max_abs:>9.5f} {energy:>10.3e}")
        assert rec.max_abs <= np.abs(u).max() + 1e-12, "heat must decay"
        u = u_new
    ths.close()

    t = LINUX_CLUSTER.time(ths.setup_ledger) + LINUX_CLUSTER.time(ths.comm.ledger)
    print(f"\ntotal FGMRES iterations: {ths.total_iterations}")
    print(f"simulated wall-clock on the Linux-cluster model: {t:.2f}s "
          f"(one preconditioner setup amortized over {steps} steps)")


if __name__ == "__main__":
    main()
