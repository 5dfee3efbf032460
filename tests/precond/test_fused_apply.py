"""Differential tests of the fused apply: the per-rank loops as oracles.

The rank-stacked sweeps and operators replaced one loop over ranks each.
Those loops live on here, word for word, as the reference every fused path
must reproduce *bit for bit* — outputs compared as bytes (so a ``-0.0`` that
became ``+0.0`` fails), per-rank flops compared exactly — over random
partitioned systems that include what the stacks could get wrong: one rank,
ranks with no internal or no interface unknowns, a rank without ghost
columns, RCM orders next to natural ones, signed zeros, both kernel tiers.
Schur 1's inner solves and Block K's, which now run in lockstep over all
ranks, have the whole per-rank apply as their oracle, exactly-zero
right-hand-side slices, lucky breakdowns and unequal early exits included.
"""

import numpy as np
import pytest
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
from repro.kernels.apply import csr_matvec
from repro.krylov.fgmres import fgmres
from repro.krylov.ops import CountingOps, fixed_tree_sum
from repro.precond import block_jacobi as block_module
from repro.precond import schur1 as schur1_module
from repro.precond.block_jacobi import BlockPreconditioner, block2, block_krylov
from repro.precond.schur1 import Schur1Preconditioner
from repro.precond.schur2 import Schur2Preconditioner
from repro.resilience.errors import InnerSolveDivergence
from tests.krylov.reference_fgmres import reference_fgmres

TIERS = ("reference", None)  # None: auto, i.e. the compiled kernels


# -- random partitioned systems -------------------------------------------------


def coupled_system(sizes, modes, seed):
    """``(matrix, membership, P, seed)``: rank r owns a contiguous run of
    ``sizes[r]`` rows and is *isolated* (couples to no other rank: no
    interface unknowns, no ghost columns), *exposed* (every row couples
    outward: no internal unknowns) or *mixed*."""
    nranks = len(sizes)
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


@st.composite
def coupled_systems(draw):
    nranks = draw(st.sampled_from([1, 2, 5]))
    sizes = [draw(st.integers(min_value=1, max_value=7)) for _ in range(nranks)]
    modes = [draw(st.sampled_from(["isolated", "exposed", "mixed"])) for _ in range(nranks)]
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return coupled_system(sizes, modes, seed)


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


def loop_solve_b_gmres(m: Schur1Preconditioner, rank, f, counter):
    """A few local GMRES iterations on B_i, ILUT-block preconditioned."""
    blocks = m.dmat.blocks[rank]
    sb = m.schur_blocks[rank]
    b_mat = blocks.B
    if b_mat.shape[0] == 0:
        return np.empty(0)

    a_flops, m_flops = 2.0 * b_mat.nnz, sb.solve_b_flops()

    def apply_a(v):
        counter.add(a_flops)
        return csr_matvec(b_mat, v)

    def apply_m(v):
        counter.add(m_flops)
        return sb.solve_b(v)

    res = fgmres(
        apply_a,
        f,
        apply_m=apply_m,
        restart=m.local_iterations,
        rtol=1e-12,
        maxiter=m.local_iterations,
        ops=counter,
    )
    if res.status == "diverged":
        raise InnerSolveDivergence(
            "Schur 1 local B-block solve diverged",
            rank=rank, where="schur1.local",
            residual=float(res.final_residual),
        )
    return res.x


def loop_schur1_apply(m: Schur1Preconditioner, r):
    pm = m.pm
    n_ifc = m._ifc_layout.total
    ghat = np.empty(n_ifc)
    f_parts = []
    flops = np.zeros(m.comm.size)

    # Step 1: ĝ_i = g_i − E_i B̃_i^{-1} f_i
    for rank, sd in enumerate(pm.subdomains):
        loc = pm.layout.local(r, rank)
        f_i, g_i = loc[: sd.n_internal], loc[sd.n_internal :]
        f_parts.append(f_i)
        counter = CountingOps(max(sd.n_internal, 1))
        w = loop_solve_b_gmres(m, rank, f_i, counter)
        e_mat = m.dmat.blocks[rank].E
        m._ifc_layout.local(ghat, rank)[:] = g_i - csr_matvec(e_mat, w)
        counter.add(2.0 * e_mat.nnz)
        flops[rank] = counter.flops
    m.comm.ledger.add_phase(flops)

    # Step 2: solve S y = ĝ approximately (distributed GMRES)
    y = m._solve_schur_system(ghat)

    # Step 3: u_i = B̃_i^{-1} (f_i − F_i y_i)
    z = np.empty_like(r)
    flops = np.zeros(m.comm.size)
    for rank, sd in enumerate(pm.subdomains):
        y_i = m._ifc_layout.local(y, rank)
        counter = CountingOps(max(sd.n_internal, 1))
        f_mat = m.dmat.blocks[rank].F
        rhs = f_parts[rank] - csr_matvec(f_mat, y_i)
        counter.add(2.0 * f_mat.nnz)
        u_i = loop_solve_b_gmres(m, rank, rhs, counter)
        loc = pm.layout.local(z, rank)
        loc[: sd.n_internal] = u_i
        loc[sd.n_internal :] = y_i
        flops[rank] = counter.flops
    m.comm.ledger.add_phase(flops)
    return z


def loop_blockk_apply(m: BlockPreconditioner, r):
    """Block K: a few ILUT-preconditioned GMRES iterations per subdomain."""
    z = np.empty_like(r)
    flops = np.zeros(m.comm.size)
    for rank in range(m.comm.size):
        loc = m.pm.layout.local_slice(rank)
        a_own = m.dmat.owned_square[rank]
        fac, perm = m.factors[rank], m.local_solver.perms[rank]
        counter = CountingOps(a_own.shape[0])

        def apply_a(v, a=a_own, c=counter):
            c.add(2.0 * a.nnz)
            return csr_matvec(a, v)

        # the operator is in natural order, the factor in ``perm`` order
        def apply_m(v, f=fac, p=perm, c=counter):
            c.add(f.solve_flops())
            return solve_permuted(f, p, v)

        res = reference_fgmres(
            apply_a,
            r[loc],
            apply_m=apply_m,
            restart=m.inner_iterations,
            rtol=1e-12,
            maxiter=m.inner_iterations,
            ops=counter,
        )
        if res.status == "diverged":
            raise InnerSolveDivergence(
                "Block K local Krylov solve diverged",
                rank=rank, where="blockk.local",
                residual=float(res.final_residual),
            )
        z[loc] = res.x
        flops[rank] = counter.flops
    m.comm.ledger.add_phase(flops)
    return z


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


def _zero_internal_slice(pm, r, rank):
    """``r`` with rank ``rank``'s internal unknowns set to exactly zero."""
    r = r.copy()
    pm.layout.local(r, rank)[: pm.subdomains[rank].n_internal] = 0.0
    return r


#: ILUT settings: the default is exact on these small blocks (every inner
#: solve converges at j = 0); the coarse one leaves them several steps
ILUT = st.sampled_from([{}, {"drop_tol": 0.5, "fill": 1}])


@given(coupled_systems(), st.integers(min_value=-1, max_value=4), ILUT)
@settings(max_examples=60, deadline=None)
def test_lockstep_schur1_apply_is_the_per_rank_loop(system, zero_rank, ilut):
    pm, dmat = _distribute(system)
    comm = Communicator(pm.num_ranks)
    m = Schur1Preconditioner(dmat, comm, **ilut)
    r = _vector(pm.layout.total, system[3])
    if 0 <= zero_rank < pm.num_ranks:
        r = _zero_internal_slice(pm, r, zero_rank)
    _assert_fused_matches(
        comm, m.apply, lambda v: _charged(comm, loop_schur1_apply, m, v), r
    )


def test_lockstep_schur1_covers_every_exit(monkeypatch):
    """P = 5, each rank leaving the inner solves its own way: rank 0 has no
    internal unknowns, rank 1 one (its basis vector is ±1, so MGS breaks
    down exactly at j = 0), rank 2 an exactly-zero right-hand side (isolated,
    so step 3's is zero too) and rank 4 runs all ``local_iterations`` after
    the others left (a coarse ILUT, so B̃_i is not B_i's exact LU)."""
    system = coupled_system(
        [3, 1, 4, 7, 6], ["exposed", "isolated", "isolated", "mixed", "mixed"], seed=0
    )
    pm, dmat = _distribute(system)
    assert [sd.n_internal for sd in pm.subdomains] == [0, 1, 4, 3, 5]
    comm = Communicator(pm.num_ranks)
    m = Schur1Preconditioner(dmat, comm, drop_tol=0.5, fill=1)
    r = _zero_internal_slice(pm, _vector(pm.layout.total, 11), 2)

    runs = []
    lockstep = schur1_module.fgmres_lockstep

    def spy(*args, **kwargs):
        x, results = lockstep(*args, **kwargs)
        runs.append([(res.iterations, res.status) for res in results])
        return x, results

    monkeypatch.setattr(schur1_module, "fgmres_lockstep", spy)
    _assert_fused_matches(
        comm, m.apply, lambda v: _charged(comm, loop_schur1_apply, m, v), r
    )
    assert len(runs) == 2 * 2 * len(TIERS)  # steps 1 and 3 of two applies per tier
    for steps in runs:
        assert steps[:3] == [(0, "converged"), (1, "converged"), (0, "converged")]
        assert steps[4] == (m.local_iterations, "maxiter"), steps


@given(coupled_systems(), st.sampled_from(["natural", "rcm"]),
       st.integers(min_value=-1, max_value=4), ILUT)
@settings(max_examples=60, deadline=None)
def test_lockstep_blockk_apply_is_the_per_rank_loop(system, ordering, zero_rank, ilut):
    pm, dmat = _distribute(system)
    comm = Communicator(pm.num_ranks)
    m = block_krylov(dmat, comm, ordering=ordering, **ilut)
    r = _vector(pm.layout.total, system[3])
    if 0 <= zero_rank < pm.num_ranks:
        pm.layout.local(r, zero_rank)[:] = 0.0
    _assert_fused_matches(
        comm, m.apply, lambda v: _charged(comm, loop_blockk_apply, m, v), r
    )


@pytest.mark.parametrize("ordering", ["natural", "rcm"])
def test_lockstep_blockk_covers_every_exit(monkeypatch, ordering):
    """P = 5, the ranks leaving the inner solve their own ways: rank 1 has
    one unknown (MGS breaks down exactly at j = 0), rank 2 an exactly-zero
    right-hand side, rank 0 converges at its third step (three unknowns) and
    ranks 3 and 4 run out of ``inner_iterations`` (a coarse ILUT, so Ã_i⁻¹
    is not A_i's exact inverse)."""
    system = coupled_system(
        [3, 1, 4, 7, 6], ["exposed", "isolated", "isolated", "mixed", "mixed"], seed=0
    )
    pm, dmat = _distribute(system)
    comm = Communicator(pm.num_ranks)
    m = block_krylov(dmat, comm, drop_tol=0.5, fill=1, ordering=ordering)
    r = _vector(pm.layout.total, 11)
    pm.layout.local(r, 2)[:] = 0.0

    runs = []
    lockstep = block_module.fgmres_lockstep

    def spy(*args, **kwargs):
        x, results = lockstep(*args, **kwargs)
        runs.append([(res.iterations, res.status) for res in results])
        return x, results

    monkeypatch.setattr(block_module, "fgmres_lockstep", spy)
    _assert_fused_matches(
        comm, m.apply, lambda v: _charged(comm, loop_blockk_apply, m, v), r
    )
    assert len(runs) == 2 * len(TIERS)
    assert m.inner_iterations == 3
    for steps in runs:
        assert steps == [
            (3, "converged"), (1, "converged"), (0, "converged"), (3, "maxiter"), (3, "maxiter"),
        ]


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
