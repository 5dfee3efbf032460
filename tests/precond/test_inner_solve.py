"""The one inner solve, :func:`repro.precond.base.inner_solve`: Schur 1's
B-solves and interface solve, Schur 2's expanded-interface solve and Block
K's subdomain solves all run it, each raising its own divergence."""

import numpy as np
import pytest

from repro import CASE_BUILDERS, solve_case
from repro.comm.communicator import Communicator
from repro.precond.block_jacobi import block_krylov
from repro.precond.schur1 import Schur1Preconditioner
from repro.precond.schur2 import Schur2Preconditioner
from repro.resilience.errors import InnerSolveDivergence

#: where -> (preconditioner, the stacked operator its inner solve multiplies
#: by, the message)
SITES = {
    "schur1.local": (Schur1Preconditioner, "_B", "Schur 1 local B-block solve diverged"),
    "schur1.global": (Schur1Preconditioner, "_C", "Schur 1 global interface solve diverged"),
    "schur2.global": (
        Schur2Preconditioner, "_s_hat", "Schur 2 global expanded-interface solve diverged",
    ),
    "blockk.local": (block_krylov, "_a_hat", "Block K local Krylov solve diverged"),
}


@pytest.mark.parametrize("where", sorted(SITES))
def test_each_site_raises_its_own_divergence(partitioned_poisson, where):
    """A NaN operator diverges the site's solve at its first residual: the
    apply raises with the site's message and label, naming rank 0 (the
    lowest) where the solve runs one system per rank."""
    make, operator, message = SITES[where]
    pm, dmat, rhs, _ = partitioned_poisson
    m = make(dmat, Communicator(pm.num_ranks))
    # the distribution's stacks are shared and read-only: spoil a copy
    spoiled = getattr(m, operator).copy()
    spoiled.data[:] = np.nan
    setattr(m, operator, spoiled)
    with np.errstate(all="ignore"), pytest.raises(InnerSolveDivergence) as info:
        m.apply(pm.to_distributed(rhs))
    assert info.value.args == (message,)
    assert info.value.context["where"] == where
    assert info.value.context.get("rank") == (0 if where.endswith(".local") else None)


def test_the_p1_schur1_ledger():
    """P = 1, the baseline of the paper's speedup curves, has no interface:
    Schur 1's step-2 solve is one empty system, which still makes its
    operator call and charges, as ``fgmres`` always did (lockstep would
    skip it: 20 phases, 7 allreduces, 195552 flops)."""
    out = solve_case(CASE_BUILDERS["tc1"](17), precond="schur1", nparts=1)
    ledger = out.solve_ledger
    assert (ledger.phases, ledger.allreduces, ledger.crit_flops) == (28, 9, 209286.0)
