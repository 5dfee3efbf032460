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
from repro.core import stages
from repro.factor.ilu0 import ilu0
from repro.factor.ilut import ilut

from common import scaled_n


@pytest.fixture(scope="module")
def system():
    case = poisson2d_case(n=scaled_n(81))
    dmat = stages.distribute(case, 4)
    return case, dmat.pm, dmat


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
    """One RCM-ordered TC1 subdomain block — small bandwidth, band window.

    Only ``ordering="rcm"`` (ablation A7) builds such a block; it carries
    the apply-phase benches of ``bench_apply_micro.py`` and one ungated
    ILUT row here.
    """
    from repro.graph.adjacency import graph_from_matrix
    from repro.graph.rcm import reverse_cuthill_mckee
    from repro.sparse.reorder import apply_symmetric_permutation

    case = poisson2d_case(n=scaled_n(101))
    a = stages.distribute(case, 4).owned_square[0]
    perm = reverse_cuthill_mckee(graph_from_matrix(a))
    return apply_symmetric_permutation(a, perm), case


def _tc2_owned_block():
    """A natural-ordered TC2 owned block — what ``solve_case`` factors.

    [internal; interface] numbering, bandwidth close to the dimension: the
    block every default Block 1/2 and Schur 1 set-up eliminates (the
    ``setup_bound`` workload of the end-to-end benchmark at full scale).
    """
    from repro import CASE_BUILDERS

    case = CASE_BUILDERS["tc2"](scaled_n(15))
    return stages.distribute(case, 8).owned_square[0], case


ILUT_GATE = {"drop_tol": 1e-3, "fill": 10, "required_speedup": 2.0}
ILU0_GATE = {"required_speedup": 2.0}


def test_kernel_factor_tier_speedup():
    """Array kernels vs the reference on the block ``solve_case`` factors.

    Emits schema-versioned ``results/BENCH_kernels.json`` (atomic write) with
    per-tier factorization, set-up and apply timings for ILUT over the
    parameter grid and for ILU(0), and gates >= 2x on both factorizations at
    full scale.  One RCM row is kept, ungated: nothing on a default path
    builds that block.
    """
    import timeit

    from common import merge_results_json, scale

    from repro import kernels
    from repro.factor import cache as factor_cache
    from repro.factor.reference import ilu0_reference, ilut_reference
    from repro.kernels import band, triples

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

    def per_tier(build, b):
        """Full set-up (kernel + triangular-solver construction) and one
        apply, each under the tier that built the factor; nnz per tier."""
        row = {"setup_ms": {}, "apply_ms": {}, "nnz": {}}
        facs = {}
        for tier in ("reference", "numpy"):
            with kernels.forced_tier(tier):
                row["setup_ms"][tier] = best(build, repeat=3)
                facs[tier] = build()
                row["apply_ms"][tier] = best(lambda: facs[tier].solve(b))
                row["nnz"][tier] = facs[tier].nnz
        for part in ("l_strict", "u_upper"):
            ref, fast = getattr(facs["reference"], part), getattr(facs["numpy"], part)
            assert np.array_equal(ref.indices, fast.indices)
            assert ref.data.tobytes() == fast.data.tobytes()
        row["pipeline_speedup"] = row["setup_ms"]["reference"] / row["setup_ms"]["numpy"]
        return row

    def ilut_row(a, b, drop_tol, fill):
        n = a.shape[0]
        f_ref, f_np = interleaved(
            lambda: ilut_reference(a, drop_tol, fill, 0.0),
            lambda: band.ilut_factor(
                n, a.indptr, a.indices, a.data, drop_tol, fill, 0.0,
                band.row_norms2(n, a.indptr, a.data),
            ),
        )
        return {
            "drop_tol": drop_tol, "fill": fill,
            "factor_ms": {"reference": f_ref, "numpy": f_np},
            "speedup": f_ref / f_np,
            **per_tier(lambda: ilut(a, drop_tol, fill), b),
        }

    a, case = _tc2_owned_block()
    n = a.shape[0]
    b = np.random.default_rng(4).random(n)
    a_rcm, case_rcm = _tc1_subdomain_block()
    n_rcm = a_rcm.shape[0]

    factor_cache.configure(enabled=False)
    try:
        ilut_rows = [ilut_row(a, b, *cfg) for cfg in [(1e-3, 10), (1e-4, 20)]]
        f_ref, f_np = interleaved(
            lambda: ilu0_reference(a, False, 0.0),
            lambda: triples.ilu0_factor(n, a.indptr, a.indices, a.data, 0.0),
        )
        ilu0_row = {
            "factor_ms": {"reference": f_ref, "numpy": f_np},
            "speedup": f_ref / f_np,
            **per_tier(lambda: ilu0(a), b),
        }
        rcm_row = ilut_row(a_rcm, np.random.default_rng(4).random(n_rcm), 1e-4, 20)
    finally:
        factor_cache.configure(enabled=True)

    doc = {
        "schema": "repro.bench.kernels.v5",
        "case": case.key,
        "nparts": 8,
        "block_n": n,
        "bandwidth": int(band.bandwidth(n, a.indptr, a.indices)),
        "ordering": "natural",
        "tiers": list(kernels.available_tiers()),
        "gate": {"ilut": ILUT_GATE, "ilu0": ILU0_GATE},
        "ilut": ilut_rows,
        "ilu0": ilu0_row,
        "rcm": {
            "case": case_rcm.key,
            "block_n": n_rcm,
            "bandwidth": int(band.bandwidth(n_rcm, a_rcm.indptr, a_rcm.indices)),
            "gated": False,
            "ilut": rcm_row,
        },
    }
    # the apply/whole_solve sections are owned by bench_apply_micro.py
    # and merged into the same document (see common.merge_results_json)
    path = merge_results_json("BENCH_kernels.json", doc)
    gate = next(r for r in ilut_rows
                if (r["drop_tol"], r["fill"]) == (ILUT_GATE["drop_tol"], ILUT_GATE["fill"]))
    print(f"\nnatural TC2 block (n={n}): ILUT "
          + ", ".join(
              f"({r['drop_tol']:g},{r['fill']}) {r['speedup']:.2f}x "
              f"(pipeline {r['pipeline_speedup']:.2f}x)"
              for r in ilut_rows)
          + f"; ILU(0) {ilu0_row['speedup']:.2f}x "
          f"(pipeline {ilu0_row['pipeline_speedup']:.2f}x); "
          f"RCM TC1 block (n={n_rcm}) ILUT {rcm_row['speedup']:.2f}x, ungated"
          f"\n[written to {path}]")
    # the gates are defined at full scale; scaled-down smoke runs
    # (REPRO_SCALE < 1) still exercise the bench and emit the JSON, but a
    # tiny block cannot amortize the per-row sweep overhead
    if scale() >= 1.0:
        assert gate["speedup"] >= ILUT_GATE["required_speedup"]
        assert ilu0_row["speedup"] >= ILU0_GATE["required_speedup"]


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
