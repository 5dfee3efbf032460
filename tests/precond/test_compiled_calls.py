"""Compiled calls per preconditioner apply: a per-rank loop fails here.

scipy's ``_superlu.gstrs`` binding leaks one small block per call
(docs/performance.md §5), so the memory a long march grows by is the number
of sweeps it makes; and every call is a Python-level dispatch around a
microsecond kernel.  What bounds both is one stacked sweep / product per
phase instead of one per rank — counted here, at P = 8 with the default
iteration counts, so that a reintroduced per-rank loop fails a test and not
a memory graph.  A preconditioner built on warm factors also inherits the
stacks — and their probe verdicts — of the one built before it, so its
first apply runs no interpreted sweep at all.
"""

import numpy as np
import pytest

from repro.cases import build_case
from repro.comm.communicator import Communicator
from repro.core import make_preconditioner
from repro.distributed.matrix import distribute_matrix
from repro.distributed.partition_map import PartitionMap
from repro.factor import cache as factor_cache
from repro.kernels import apply as apply_kernels
from repro.kernels import applyspec

P = 8


class _Counting:
    """A compiled module with one entry point counted."""

    def __init__(self, real, name):
        self.calls = 0
        entry = getattr(real, name)

        def counted(*args):
            self.calls += 1
            return entry(*args)

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
    """Steps 1 and 3 run the ranks' inner solves in lockstep: one stacked
    sweep per inner iteration; step 2 sweeps once per S-matvec (the initial
    and the final residual included) and once per preconditioning — whatever
    P is.  288 sweeps before the stacks, 60 before the lockstep."""
    m, sweeps, products = _calls_per_apply(dmat, monkeypatch, "schur1")
    local, glob = m.local_iterations, m.global_iterations
    assert (local, glob) == (3, 5)
    assert sweeps == 2 * local + 2 * glob + 2 == 18
    # per step one stacked B product per inner iteration and residual, plus
    # E or F; per S-matvec F, C, E and the stacked Ē
    assert products == 2 * (local + 3) + 4 * (glob + 2) == 40


@pytest.mark.parametrize("params", [None, {"ordering": "rcm"}])
def test_blockk_apply(dmat, monkeypatch, params):
    """The ranks' inner GMRES runs in lockstep: one stacked sweep per inner
    iteration (RCM's one permutation in and out around it) and one stacked
    A product per inner iteration plus the initial and the final residual —
    whatever P is.  24 sweeps + 40 products at P = 8 before the lockstep
    (23 + 39 with RCM, where one rank left early)."""
    m, sweeps, products = _calls_per_apply(dmat, monkeypatch, "blockk", params)
    inner = m.inner_iterations
    assert inner == 3
    assert (sweeps, products) == (inner, inner + 2) == (3, 5)


def test_schur2_apply(dmat, monkeypatch):
    """Step 2: one stacked Ŝ and one stacked Ē product per matvec, one sweep
    per preconditioning; the ARMS cascades are per-rank products, no sweeps."""
    m, sweeps, products = _calls_per_apply(dmat, monkeypatch, "schur2")
    glob = m.global_iterations
    assert sweeps == glob == 5
    per_rank = products - 2 * (glob + 2)
    assert per_rank > 0 and per_rank % P == 0


@pytest.fixture()
def warm_cache():
    """The factor cache on and empty; both restored afterwards."""
    cache = factor_cache.get_cache()
    prior = cache.enabled
    factor_cache.configure(enabled=True)
    cache.clear()
    yield cache
    cache.clear()
    factor_cache.configure(enabled=prior)


@pytest.mark.parametrize("name,stacks", [("schur1", 2), ("block2", 1)])
def test_warm_factors_keep_their_probe(dmat, monkeypatch, warm_cache, name, stacks):
    """The first set-up probes each stacked sweep once (one interpreted
    pass); a second one on the same, now warm, factors gets the very same
    stacks and runs zero spec-loop passes."""
    case, dmat = dmat
    r = np.random.default_rng(1).standard_normal(dmat.pm.layout.total)
    passes = _Counting(applyspec, "forward_unit")
    monkeypatch.setattr(applyspec, "forward_unit", passes.forward_unit)

    def build_and_apply():
        m = make_preconditioner(name, dmat, Communicator(P), case, None)
        return m, m.apply(r)

    first, z_first = build_and_apply()
    assert passes.calls == stacks
    before = warm_cache.stats()
    second, z_second = build_and_apply()
    assert passes.calls == stacks
    after = warm_cache.stats()
    assert after["stack_misses"] == before["stack_misses"]
    assert after["stack_hits"] > before["stack_hits"]
    if name == "schur1":
        assert (second._solve_b, second._solve_s) == (first._solve_b, first._solve_s)
    else:
        assert second.local_solver._fused is first.local_solver._fused
    assert z_second.tobytes() == z_first.tobytes()
