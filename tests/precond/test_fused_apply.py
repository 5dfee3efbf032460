"""Differential tests of the fused apply: the per-rank loops as oracles.

The rank-stacked sweeps and operators replaced one loop over ranks each.
Those loops live on here, word for word, as the reference every fused path
must reproduce *bit for bit* — outputs compared as bytes (so a ``-0.0`` that
became ``+0.0`` fails), per-rank flops compared exactly — over random
partitioned systems that include what the stacks could get wrong: one rank,
ranks with no internal or no interface unknowns, a rank without ghost
columns, RCM orders next to natural ones, signed zeros, both kernel tiers.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.comm.communicator import Communicator
from repro.distributed.layout import Layout
from repro.distributed.matrix import distribute_matrix
from repro.distributed.ops import DistributedOps
from repro.distributed.partition_map import PartitionMap
from repro.factor.base import solve_permuted
from repro.graph.adjacency import graph_from_matrix
from repro.krylov.ops import fixed_tree_sum
from repro.precond.block_jacobi import block2
from repro.precond.schur1 import Schur1Preconditioner
from repro.precond.schur2 import Schur2Preconditioner

TIERS = ("reference", None)  # None: auto, i.e. the compiled kernels


# -- random partitioned systems -------------------------------------------------


@st.composite
def coupled_systems(draw):
    """``(matrix, membership, P, seed)``: rank r owns a contiguous run of rows;
    each rank is *isolated* (couples to no other rank: no interface unknowns,
    no ghost columns), *exposed* (every row couples outward: no internal
    unknowns) or *mixed*."""
    nranks = draw(st.sampled_from([1, 2, 5]))
    sizes = [draw(st.integers(min_value=1, max_value=7)) for _ in range(nranks)]
    modes = [draw(st.sampled_from(["isolated", "exposed", "mixed"])) for _ in range(nranks)]
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    ptr = np.concatenate(([0], np.cumsum(sizes)))
    n = int(ptr[-1])
    dense = np.zeros((n, n))
    for r in range(nranks):
        lo, hi = ptr[r], ptr[r + 1]
        block = rng.standard_normal((hi - lo, hi - lo))
        dense[lo:hi, lo:hi] = block * (rng.random(block.shape) < 0.5)
    for r, mode in enumerate(modes):
        others = [q for q in range(nranks) if q != r and modes[q] != "isolated"]
        if mode == "isolated" or not others:
            continue
        for i in range(ptr[r], ptr[r + 1]):
            if mode == "exposed" or rng.random() < 0.4:
                q = others[int(rng.integers(len(others)))]
                j = int(rng.integers(ptr[q], ptr[q + 1]))
                dense[i, j] = rng.standard_normal()
                dense[j, i] = rng.standard_normal()
    dense[np.arange(n), np.arange(n)] = 4.0 + np.abs(dense).sum(axis=1)
    membership = np.repeat(np.arange(nranks), sizes).astype(np.int64)
    return sp.csr_matrix(dense), membership, nranks, seed


def _distribute(system):
    a, membership, nranks, _ = system
    pm = PartitionMap(graph_from_matrix(a), membership, num_ranks=nranks)
    return pm, distribute_matrix(a, pm)


def _vector(n, seed):
    """Normal entries with exact zeros of both signs mixed in."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    x[rng.random(n) < 0.2] = 0.0
    x[rng.random(n) < 0.2] = -0.0
    return x


def _charged(comm, fn, *args):
    """``fn(*args)`` and the per-rank flops it charged."""
    comm.reset_ledger()
    out = fn(*args)
    return out, comm.ledger.per_rank_flops.copy()


def _assert_fused_matches(comm, fused, oracle, x):
    """Under both tiers, on the probing call and on the one after it."""
    want, want_flops = oracle(x)
    for tier in TIERS:
        with kernels.forced_tier(tier):
            for _ in range(2):
                got, flops = _charged(comm, fused, x)
                assert got.tobytes() == want.tobytes(), f"tier {tier}"
                assert flops.tobytes() == want_flops.tobytes(), f"tier {tier}"


# -- the loops the fused paths replaced -----------------------------------------


def loop_local_solve(factors, perms, layout, r):
    z = np.empty_like(r)
    for rank, fac in enumerate(factors):
        loc = layout.local_slice(rank)
        z[loc] = solve_permuted(fac, perms[rank], r[loc])
    return z


def loop_schur_matvec(m: Schur1Preconditioner, y):
    pm, layout = m.pm, m._ifc_layout
    owned = layout.split(y)
    ghosts = [np.zeros(len(sd.ghost)) for sd in pm.subdomains]
    pm.interface_pattern.exchange(Communicator(pm.num_ranks), owned, ghosts)
    out = np.empty_like(y)
    flops = np.zeros(pm.num_ranks)
    for r in range(pm.num_ranks):
        blocks, sb = m.dmat.blocks[r], m.schur_blocks[r]
        yi = owned[r]
        s = sb.UB.solve(sb.LB.solve(blocks.F @ yi))
        v = blocks.C @ yi - blocks.E @ s
        ghost_mat = m.dmat.ghost_coupling[r]
        if ghost_mat.shape[1]:
            v = v + ghost_mat @ ghosts[r]
        layout.local(out, r)[:] = v
        flops[r] = (
            2.0 * (blocks.F.nnz + blocks.C.nnz + blocks.E.nnz + ghost_mat.nnz)
            + float(sb.LB.flops() + sb.UB.flops())
        )
    return out, flops


def loop_schur_precond(m: Schur1Preconditioner, g):
    layout = m._ifc_layout
    out = np.empty_like(g)
    flops = np.zeros(m.pm.num_ranks)
    for r, sb in enumerate(m.schur_blocks):
        layout.local(out, r)[:] = sb.US.solve(sb.LS.solve(layout.local(g, r)))
        flops[r] = float(sb.LS.flops() + sb.US.flops())
    return out, flops


def loop_expanded_matvec(m: Schur2Preconditioner, y):
    pm, layout = m.pm, m._exp_layout
    ifc_views = [
        layout.local(y, r)[m.arms[r].final_n_local_interface :]
        for r in range(pm.num_ranks)
    ]
    ghosts = [np.zeros(len(sd.ghost)) for sd in pm.subdomains]
    pm.interface_pattern.exchange(Communicator(pm.num_ranks), ifc_views, ghosts)
    out = np.empty_like(y)
    flops = np.zeros(pm.num_ranks)
    for r, fac in enumerate(m.arms):
        v = fac.final_s_hat @ layout.local(y, r)
        ghost_mat = m.dmat.ghost_coupling[r]
        if ghost_mat.shape[1]:
            v[fac.final_n_local_interface :] += ghost_mat @ ghosts[r]
        layout.local(out, r)[:] = v
        flops[r] = 2.0 * (fac.final_s_hat.nnz + ghost_mat.nnz)
    return out, flops


def loop_expanded_precond(m: Schur2Preconditioner, g):
    layout = m._exp_layout
    out = np.empty_like(g)
    flops = np.zeros(m.pm.num_ranks)
    for r, fac in enumerate(m.arms):
        layout.local(out, r)[:] = fac.final_solve_s_ilu(layout.local(g, r))
        flops[r] = fac.final.solve_s_flops()
    return out, flops


# -- the properties -------------------------------------------------------------


@given(coupled_systems(), st.sampled_from(["natural", "rcm"]))
@settings(max_examples=40, deadline=None)
def test_stacked_local_solve_is_the_per_rank_loop(system, ordering):
    pm, dmat = _distribute(system)
    comm = Communicator(pm.num_ranks)
    m = block2(dmat, comm, ordering=ordering)
    solver = m.local_solver
    r = _vector(pm.layout.total, system[3])
    want = loop_local_solve(solver.factors, solver.perms, pm.layout, r)
    for tier in TIERS:
        with kernels.forced_tier(tier):
            for _ in range(2):
                assert solver.solve(pm.layout, r).tobytes() == want.tobytes()
    _, flops = _charged(comm, m.apply, r)
    assert flops.tolist() == [f.solve_flops() for f in solver.factors]


@given(coupled_systems())
@settings(max_examples=40, deadline=None)
def test_stacked_schur1_operators_are_the_per_rank_loops(system):
    pm, dmat = _distribute(system)
    comm = Communicator(pm.num_ranks)
    m = Schur1Preconditioner(dmat, comm)
    y = _vector(m._ifc_layout.total, system[3])
    _assert_fused_matches(comm, m._schur_matvec, lambda v: loop_schur_matvec(m, v), y)
    _assert_fused_matches(comm, m._schur_precond, lambda v: loop_schur_precond(m, v), y)


@given(coupled_systems())
@settings(max_examples=40, deadline=None)
def test_stacked_schur2_operators_are_the_per_rank_loops(system):
    pm, dmat = _distribute(system)
    comm = Communicator(pm.num_ranks)
    m = Schur2Preconditioner(dmat, comm, group_size=2, seed=system[3] % 1000)
    y = _vector(m._exp_layout.total, system[3])
    _assert_fused_matches(comm, m._expanded_matvec, lambda v: loop_expanded_matvec(m, v), y)
    _assert_fused_matches(comm, m._expanded_precond, lambda v: loop_expanded_precond(m, v), y)


@given(coupled_systems())
@settings(max_examples=25, deadline=None)
def test_whole_schur_applies_agree_across_tiers(system):
    """Steps 1 and 3 ride the compiled products too: one setting pins them."""
    pm, dmat = _distribute(system)
    r = _vector(pm.layout.total, system[3])
    for cls in (Schur1Preconditioner, Schur2Preconditioner):
        m = cls(dmat, Communicator(pm.num_ranks))
        with kernels.forced_tier("reference"):
            want = m.apply(r)
        assert all(m.apply(r).tobytes() == want.tobytes() for _ in range(2))


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_distributed_dot_is_the_per_rank_list_comprehension(sizes, seed):
    layout = Layout.from_sizes(sizes)
    comm = Communicator(len(sizes))
    ops = DistributedOps(comm, layout)
    x, y = _vector(layout.total, seed), _vector(layout.total, seed + 1)
    parts = [
        float(np.dot(x[layout.local_slice(r)], y[layout.local_slice(r)]))
        for r in range(layout.num_ranks)
    ]
    want = float(np.dot(x, y)) if len(sizes) == 1 else fixed_tree_sum(parts)
    got, flops = _charged(comm, ops.dot, x, y)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert flops.tolist() == [2.0 * s for s in sizes]
    assert comm.ledger.allreduces == 1
