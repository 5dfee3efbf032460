"""The factorizations ``solve_case`` actually runs take the array kernels.

PR 15's traffic audit found every block of every benchmark workload on the
interpreted kernels while the gated fast sweep ran on a block nobody built.
These tests pin the traffic, not just the kernel: for the five benchmark
tuples every owned block and every ARMS expanded Schur block whose workspace
fits ``BAND_MEM_CAP`` must reach the fast kernel under the auto policy, and
its factors must be byte-identical to the forced-reference ones.
"""

import hashlib
import sys

import numpy as np
import pytest

from repro import CASE_BUILDERS, faults, kernels
from repro.distributed.matrix import distribute_matrix
from repro.distributed.partition_map import PartitionMap
from repro.factor.arms import ArmsFactorization
from repro.factor.ilu0 import ilu0
from repro.factor.ilut import ilut
from repro.kernels import band, triples
from tests.conftest import random_nonsymmetric_csr

# (case, size, P): table_sweep, setup_bound, krylov_march (the matrix
# TransientHeatSolver factors), mp_ranks, service_closed
BENCHMARK_TUPLES = [
    ("tc1", 51, 8), ("tc2", 15, 8), ("tc4", 15, 8), ("tc1", 101, 2), ("tc1", 25, 4),
]


def _digest(fac):
    h = hashlib.sha256()
    for m in (fac.l_strict, fac.u_upper):
        for arr in (m.indptr, m.indices, m.data):
            h.update(f"{arr.dtype}|{arr.shape}|".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update(str(fac.stats.floored_pivots).encode())
    return h.hexdigest()


@pytest.fixture
def reference_calls(monkeypatch):
    """Count calls into the two reference kernels."""
    calls = {"ilut": 0, "ilu0": 0}
    for alg in calls:
        # the package re-exports the functions under the submodules' names
        mod = sys.modules[f"repro.factor.{alg}"]
        real = getattr(mod, f"{alg}_reference")

        def counted(*args, _alg=alg, _real=real):
            calls[_alg] += 1
            return _real(*args)

        monkeypatch.setattr(mod, f"{alg}_reference", counted)
    return calls


@pytest.mark.parametrize("key,size,nparts", BENCHMARK_TUPLES)
def test_benchmark_blocks_take_the_fast_kernels(key, size, nparts, reference_calls):
    case = CASE_BUILDERS[key](size)
    pm = PartitionMap(
        case.coupling_graph, case.membership(nparts, seed=0), num_ranks=nparts
    )
    dmat = distribute_matrix(case.matrix, pm)
    for r in range(nparts):
        a = dmat.owned_square[r]
        n = a.shape[0]
        window = band.window_bytes(n, band.bandwidth(n, a.indptr, a.indices))
        # ILU(0) (Block 1) always fits; the ILUT window (Block 2, Schur 1)
        # does except on the n ~ 5100 blocks of mp_ranks
        assert triples.workspace_bytes(n, a.indptr, a.indices) <= kernels.BAND_MEM_CAP
        assert (window <= kernels.BAND_MEM_CAP) == (n < 4000)
        before = dict(reference_calls)
        fast = [ilu0(a)]
        if window <= kernels.BAND_MEM_CAP:
            fast.append(ilut(a, 1e-3, 10))
        assert reference_calls == before, "an owned block reached a reference kernel"
        with kernels.forced_tier("reference"):
            ref = [ilu0(a)] + ([ilut(a, 1e-3, 10)] if len(fast) == 2 else [])
        assert [_digest(f) for f in fast] == [_digest(f) for f in ref]

        if n < 4000:  # Schur 2 runs on neither mp_ranks op
            before = dict(reference_calls)
            arms = ArmsFactorization(a, pm.subdomains[r].n_internal, seed=r)
            assert reference_calls == before, "an ARMS S-hat reached ilu0_reference"
            with kernels.forced_tier("reference"):
                assert _digest(ilu0(arms.s_hat)) == _digest(arms.s_ilu)


class TestReferenceOnlySemantics:
    """MILU and live pivot fault plans stay on the scalar kernels."""

    def test_modified_ilu0_reaches_reference(self, reference_calls):
        a = random_nonsymmetric_csr(30, 0.2, 1)
        with kernels.forced_tier("numpy"):
            ilu0(a, modified=True)
        assert reference_calls["ilu0"] == 1

    @pytest.mark.parametrize("factor,alg", [
        (lambda a: ilu0(a), "ilu0"),
        (lambda a: ilut(a, 1e-3, 5), "ilut"),
    ])
    def test_live_pivot_plan_fires_its_hooks(self, factor, alg, reference_calls):
        a = random_nonsymmetric_csr(30, 0.2, 2)
        plan = faults.FaultPlan(faults.FaultSpec("bad-pivot", count=3))
        with faults.inject(plan), kernels.forced_tier("numpy"):
            factor(a)
        assert reference_calls[alg] == 1
        assert len(plan.injected) == 3  # one hook opportunity per row, as ever

    def test_exhausted_plan_goes_back_to_the_fast_kernel(self, reference_calls):
        a = random_nonsymmetric_csr(30, 0.2, 3)
        plan = faults.FaultPlan(faults.FaultSpec("bad-pivot", count=1))
        with faults.inject(plan):
            ilu0(a)
            ilu0(a)
        assert reference_calls["ilu0"] == 1
