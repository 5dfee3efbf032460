"""Compiled calls per preconditioner apply: a per-rank loop fails here.

scipy's ``_superlu.gstrs`` binding leaks one small block per call
(docs/performance.md §5), so the memory a long march grows by is the number
of sweeps it makes; and every call is a Python-level dispatch around a
microsecond kernel.  What bounds both is one stacked sweep / product per
phase instead of one per rank — counted here, at P = 8 with the default
iteration counts, so that a reintroduced per-rank loop fails a test and not
a memory graph.
"""

import numpy as np
import pytest

from repro.cases import build_case
from repro.comm.communicator import Communicator
from repro.core import make_preconditioner
from repro.distributed.matrix import distribute_matrix
from repro.distributed.partition_map import PartitionMap
from repro.kernels import apply as apply_kernels

P = 8


class _Counting:
    """A compiled module with one entry point counted."""

    def __init__(self, real, name):
        self.calls = 0

        def counted(*args):
            self.calls += 1
            return getattr(real, name)(*args)

        setattr(self, name, counted)


@pytest.fixture(scope="module")
def dmat():
    case = build_case("tc1", 25)
    pm = PartitionMap(case.coupling_graph, case.membership(P, seed=0), num_ranks=P)
    return case, distribute_matrix(case.matrix, pm)


def _calls_per_apply(dmat, monkeypatch, name, params=None):
    case, dmat = dmat
    m = make_preconditioner(name, dmat, Communicator(P), case, params)
    r = np.random.default_rng(0).standard_normal(dmat.pm.layout.total)
    m.apply(r)  # every sweep is probed and prepared
    sweeps = _Counting(apply_kernels._superlu(), "gstrs")
    products = _Counting(apply_kernels._sparsetools(), "csr_matvec")
    monkeypatch.setattr(apply_kernels, "_superlu", lambda: sweeps)
    monkeypatch.setattr(apply_kernels, "_sparsetools", lambda: products)
    m.apply(r)
    return m, sweeps.calls, products.calls


@pytest.mark.parametrize("name,params", [
    ("block1", None), ("block2", None), ("block2", {"ordering": "rcm"}),
])
def test_block_apply_is_one_sweep(dmat, monkeypatch, name, params):
    _, sweeps, products = _calls_per_apply(dmat, monkeypatch, name, params)
    assert (sweeps, products) == (1, 0)


def test_schur1_apply(dmat, monkeypatch):
    """Steps 1 and 3 sweep once per rank and inner iteration; step 2 once per
    S-matvec (the initial and the final residual included) and once per
    preconditioning, whatever P is.  288 sweeps before the stacks."""
    m, sweeps, products = _calls_per_apply(dmat, monkeypatch, "schur1")
    local, glob = m.local_iterations, m.global_iterations
    assert (local, glob) == (3, 5)
    assert sweeps <= 2 * P * local + 2 * glob + 2 == 60
    # per rank and step a B product per inner iteration and residual plus E
    # or F; per S-matvec F, C, E and the stacked Ē
    assert products <= 2 * P * (local + 3) + 4 * (glob + 2) == 124


def test_schur2_apply(dmat, monkeypatch):
    """Step 2: one stacked Ŝ and one stacked Ē product per matvec, one sweep
    per preconditioning; the ARMS cascades are per-rank products, no sweeps."""
    m, sweeps, products = _calls_per_apply(dmat, monkeypatch, "schur2")
    glob = m.global_iterations
    assert sweeps == glob == 5
    per_rank = products - 2 * (glob + 2)
    assert per_rank > 0 and per_rank % P == 0
