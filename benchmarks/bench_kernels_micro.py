"""Micro-benchmarks of the hot kernels (real pytest-benchmark timing).

The guides' rule: no optimization without measuring.  These time the kernels
every preconditioner application is built from — triangular solves,
distributed matvec, ILU factorizations, ghost exchange — with
multiple rounds so regressions in the vectorized implementations are visible.
Unlike the table benches (single-shot, simulated-time outputs), these measure
real wall time of the kernels themselves.
"""

import numpy as np
import pytest

from repro.cases.poisson2d import poisson2d_case
from repro.comm.communicator import Communicator
from repro.distributed.matrix import distribute_matrix
from repro.distributed.partition_map import PartitionMap
from repro.factor.ilu0 import ilu0
from repro.factor.ilut import ilut

from common import scaled_n


@pytest.fixture(scope="module")
def system():
    case = poisson2d_case(n=scaled_n(81))
    mem = case.membership(4, seed=0)
    pm = PartitionMap(case.coupling_graph, mem, num_ranks=4)
    dmat = distribute_matrix(case.matrix, pm)
    return case, pm, dmat


def test_kernel_triangular_solve(benchmark, system):
    case, _, _ = system
    fac = ilu0(case.matrix)
    rng = np.random.default_rng(0)
    b = rng.random(case.num_dofs)
    x = benchmark(fac.solve, b)
    assert np.all(np.isfinite(x))


def test_kernel_distributed_matvec(benchmark, system):
    case, pm, dmat = system
    comm = Communicator(4)
    rng = np.random.default_rng(1)
    x = pm.to_distributed(rng.random(case.num_dofs))
    y = benchmark(lambda: dmat.matvec(comm, x))
    assert np.all(np.isfinite(y))


def test_kernel_ghost_exchange(benchmark, system):
    case, pm, _ = system
    comm = Communicator(4)
    rng = np.random.default_rng(2)
    owned = [rng.random(sd.n_owned) for sd in pm.subdomains]
    ghosts = [np.zeros(len(sd.ghost)) for sd in pm.subdomains]

    benchmark(lambda: pm.pattern.exchange(comm, owned, ghosts))


def test_kernel_ilu0_factorization(benchmark, system):
    case, pm, dmat = system
    a_own = dmat.owned_square[0]
    fac = benchmark(lambda: ilu0(a_own))
    assert fac.nnz > 0


def test_kernel_ilut_factorization(benchmark, system):
    case, pm, dmat = system
    a_own = dmat.owned_square[0]
    fac = benchmark(lambda: ilut(a_own, 1e-3, 10))
    assert fac.nnz > 0


def test_kernel_tracing_disabled_overhead(benchmark, system):
    """Disabled tracing must stay under 2% on the hottest kernel.

    The public matvec carries the ``obs.enabled()`` guard; ``_matvec_charged``
    is the uninstrumented body.  Min-of-repeats timing keeps the comparison
    robust to scheduler noise.
    """
    import timeit

    from common import scale

    from repro import obs

    if scale() < 1.0:
        pytest.skip("the 2% overhead contract is defined at TC1 scale; a "
                    "scaled-down matvec cannot amortize the guard's cost")
    case, pm, dmat = system
    comm = Communicator(4)
    rng = np.random.default_rng(3)
    x = pm.to_distributed(rng.random(case.num_dofs))

    assert not obs.enabled()
    guarded = min(timeit.repeat(
        lambda: dmat.matvec(comm, x), number=200, repeat=7))
    bare = min(timeit.repeat(
        lambda: dmat._matvec_charged(comm, x), number=200, repeat=7))
    overhead = guarded / bare - 1.0
    print(f"\ntracing-disabled matvec overhead: {overhead:+.2%}")
    assert overhead < 0.02

    y = benchmark(lambda: dmat.matvec(comm, x))
    assert np.all(np.isfinite(y))


def _tc1_subdomain_block():
    """One RCM-ordered TC1 subdomain block — the shape the band tier targets.

    The natural [internal; interface] ordering leaves the block's bandwidth
    near its dimension, which the dispatch economy gate routes to the
    reference tier; RCM (the ``ordering="rcm"`` block-preconditioner mode)
    is the banded regime the vectorized kernels are built for.
    """
    from repro.graph.adjacency import graph_from_matrix
    from repro.graph.rcm import reverse_cuthill_mckee
    from repro.sparse.reorder import apply_symmetric_permutation

    case = poisson2d_case(n=scaled_n(101))
    mem = case.membership(4, seed=0)
    pm = PartitionMap(case.coupling_graph, mem, num_ranks=4)
    a = distribute_matrix(case.matrix, pm).owned_square[0]
    perm = reverse_cuthill_mckee(graph_from_matrix(a))
    return apply_symmetric_permutation(a, perm), case


def test_kernel_ilut_tier_speedup():
    """NumPy band tier vs pure-Python reference on a TC1 subdomain block.

    Emits schema-versioned ``results/BENCH_kernels.json`` (atomic write) with
    setup and apply timings per tier over the parameter grid, and gates the
    tentpole's acceptance criterion: >= 5x on ILUT factorization at the
    recorded gate configuration (drop_tol=1e-4, fill=20).
    """
    import timeit

    from common import scale

    from repro import kernels
    from repro.factor import cache as factor_cache
    from repro.factor.reference import ilut_reference
    from repro.kernels import band

    a, case = _tc1_subdomain_block()
    n = a.shape[0]
    bw = band.bandwidth(n, a.indptr, a.indices)
    rng = np.random.default_rng(4)
    b = rng.random(n)

    def best(fn, repeat=5):
        return min(timeit.repeat(fn, number=1, repeat=repeat)) * 1e3

    def interleaved(fn_a, fn_b, repeat=5):
        """Min-of-repeats with the two timings alternated, so a slow system
        phase biases both sides of the ratio equally."""
        ta, tb = [], []
        for _ in range(repeat):
            ta.append(timeit.timeit(fn_a, number=1))
            tb.append(timeit.timeit(fn_b, number=1))
        return min(ta) * 1e3, min(tb) * 1e3

    factor_cache.configure(enabled=False)
    try:
        grid = [(1e-3, 10), (1e-4, 20)]
        ilut_rows = []
        for drop_tol, fill in grid:
            # the factorization proper, per tier: produce the L/U factors
            def ref_factor():
                return ilut_reference(a, drop_tol, fill, 0.0)

            def band_factor():
                norms = band.row_norms2(n, a.indptr, a.data)
                return band.ilut_factor(
                    n, a.indptr, a.indices, a.data, drop_tol, fill, 0.0, norms
                )

            f_ref, f_np = interleaved(ref_factor, band_factor)
            # the full setup pipeline (factorization + triangular-solver
            # construction, shared by both tiers)
            # apply timings run under the same forced tier as the factor
            # build: TriangularFactor.solve dispatches through the apply
            # tiers too, so timing outside the context would measure the
            # fast path for every tier
            with kernels.forced_tier("reference"):
                t_ref = best(lambda: ilut(a, drop_tol, fill), repeat=3)
                fac_ref = ilut(a, drop_tol, fill)
                apply_ref = best(lambda: fac_ref.solve(b))
            with kernels.forced_tier("numpy"):
                t_np = best(lambda: ilut(a, drop_tol, fill))
                fac_np = ilut(a, drop_tol, fill)
                apply_np = best(lambda: fac_np.solve(b))
            ilut_rows.append({
                "drop_tol": drop_tol,
                "fill": fill,
                "factor_ms": {"reference": f_ref, "numpy": f_np},
                "setup_ms": {"reference": t_ref, "numpy": t_np},
                "apply_ms": {"reference": apply_ref, "numpy": apply_np},
                "nnz": {"reference": fac_ref.nnz, "numpy": fac_np.nnz},
                "speedup": f_ref / f_np,
                "pipeline_speedup": t_ref / t_np,
            })

        # ILU(0) has one kernel (factor/reference.py); only its apply is tiered
        t0 = best(lambda: ilu0(a), repeat=3)
        f0 = ilu0(a)
        with kernels.forced_tier("reference"):
            apply0_ref = best(lambda: f0.solve(b))
        with kernels.forced_tier("numpy"):
            apply0_np = best(lambda: f0.solve(b))
        ilu0_row = {
            "setup_ms": t0,
            "apply_ms": {"reference": apply0_ref, "numpy": apply0_np},
        }
    finally:
        factor_cache.configure(enabled=True)

    from common import merge_results_json

    doc = {
        "schema": "repro.bench.kernels.v3",
        "case": case.key,
        "block_n": n,
        "bandwidth": int(bw),
        "ordering": "rcm",
        "tiers": list(kernels.available_tiers()),
        "gate": {"drop_tol": 1e-4, "fill": 20, "required_speedup": 5.0},
        "ilut": ilut_rows,
        "ilu0": ilu0_row,
    }
    # the apply/whole_solve sections are owned by bench_apply_micro.py
    # and merged into the same document (see common.merge_results_json)
    path = merge_results_json("BENCH_kernels.json", doc)
    gate = next(r for r in ilut_rows
                if (r["drop_tol"], r["fill"]) == (1e-4, 20))
    print(f"\nILUT factorization speedups: "
          + ", ".join(
              f"({r['drop_tol']:g},{r['fill']}) {r['speedup']:.2f}x "
              f"(pipeline {r['pipeline_speedup']:.2f}x)"
              for r in ilut_rows)
          + f"; ILU(0) setup {t0:.1f} ms\n[written to {path}]")
    # the 5x acceptance gate is defined at TC1 scale; scaled-down smoke
    # runs (REPRO_SCALE < 1) still exercise the bench and emit the JSON,
    # but a tiny block cannot amortize the per-row sweep overhead
    if scale() >= 1.0:
        assert gate["speedup"] >= 5.0


def test_kernel_fe_assembly(benchmark):
    from repro.fem.assembly import assemble_stiffness
    from repro.mesh.grid2d import structured_rectangle

    mesh = structured_rectangle(scaled_n(81), scaled_n(81))
    k = benchmark(lambda: assemble_stiffness(mesh))
    assert k.nnz > 0


def test_kernel_partitioner(benchmark, system):
    case, _, _ = system
    from repro.graph.partitioner import partition_graph

    mem = benchmark(lambda: partition_graph(case.node_graph, 8, seed=0))
    assert len(np.unique(mem)) == 8
