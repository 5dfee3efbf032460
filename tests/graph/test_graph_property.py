"""Property tests of the array-native partitioner primitives.

Each primitive is compared with the per-vertex loop it replaced, kept here as
a naive oracle.  Graphs are arbitrary: isolated vertices, several components,
non-unit edge weights and unsorted neighbour order within a row.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.adjacency import Graph
from repro.graph.coarsen import coarsen_graph, heavy_edge_matching
from repro.graph.refine import boundary_vertices, refine_bisection
from repro.utils.rng import make_rng

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def graphs(draw, integer_weights=False):
    """(graph, seed): random undirected graph with shuffled CSR rows."""
    n = draw(st.integers(min_value=0, max_value=40))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.5]))
    seed = draw(SEEDS)
    rng = np.random.default_rng(seed)
    rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                w = float(rng.integers(1, 5)) if integer_weights else float(rng.random()) + 0.1
                rows[u].append((v, w))
                rows[v].append((u, w))
    for row in rows:
        rng.shuffle(row)
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(np.int64)
    indices = np.array([v for row in rows for v, _ in row], dtype=np.int64)
    weights = np.array([w for row in rows for _, w in row], dtype=np.float64)
    vweights = rng.integers(1, 4, n).astype(np.float64)
    return Graph(indptr, indices, weights, vweights), seed


def oracle_boundary(graph, part):
    out = []
    for v in range(graph.num_vertices):
        nbrs = graph.neighbors(v)
        if nbrs.size and np.any(part[nbrs] != part[v]):
            out.append(v)
    return out


def oracle_subgraph(graph, vertices):
    new_id = {int(old): new for new, old in enumerate(vertices)}
    indptr, indices, weights = [0], [], []
    for old in vertices:
        for u, w in zip(graph.neighbors(old), graph.edge_weights_of(old)):
            if int(u) in new_id:
                indices.append(new_id[int(u)])
                weights.append(w)
        indptr.append(len(indices))
    return indptr, indices, weights


def oracle_matching(graph, rng):
    n = graph.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    for v in rng.permutation(n):
        if match[v] >= 0:
            continue
        best, best_w = v, -np.inf
        for u, w in zip(graph.neighbors(v), graph.edge_weights_of(v)):
            if match[u] < 0 and u != v and w > best_w:
                best, best_w = u, w
        match[v] = best
        match[best] = v
    return match


def oracle_numbering(match):
    fine_to_coarse = np.full(len(match), -1, dtype=np.int64)
    next_id = 0
    for v in range(len(match)):
        if fine_to_coarse[v] < 0:
            fine_to_coarse[v] = fine_to_coarse[match[v]] = next_id
            next_id += 1
    return fine_to_coarse


def oracle_refine(graph, part, target0, imbalance, max_passes, rng):
    part = part.copy()
    vw, total = graph.vertex_weights, graph.total_vertex_weight()
    w0 = float(vw[part == 0].sum())
    lo, hi = target0 - imbalance * total, target0 + imbalance * total
    for _ in range(max_passes):
        improved = False
        bverts = np.asarray(oracle_boundary(graph, part), dtype=np.int64)
        if bverts.size == 0:
            break
        rng.shuffle(bverts)
        for v in bverts:
            same = part[graph.neighbors(v)] == part[v]
            ews = graph.edge_weights_of(v)
            if float(ews[~same].sum() - ews[same].sum()) <= 0:
                continue
            new_w0 = w0 - vw[v] if part[v] == 0 else w0 + vw[v]
            if lo <= new_w0 <= hi:
                part[v] ^= 1
                w0, improved = new_w0, True
        if not improved:
            break
    return part


@given(graphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_boundary_vertices_matches_loop(data, nparts):
    graph, seed = data
    part = np.random.default_rng(seed).integers(0, nparts, graph.num_vertices)
    got = boundary_vertices(graph, part)
    assert got.dtype == np.int64
    assert got.tolist() == oracle_boundary(graph, part)


@given(graphs(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=150, deadline=None)
def test_subgraph_keeps_neighbour_order_and_weights(data, frac):
    graph, seed = data
    n = graph.num_vertices
    # an unsorted subset, possibly empty
    vertices = np.random.default_rng(seed).permutation(n)[: int(round(frac * n))]
    sub, mapping = graph.subgraph(vertices)
    indptr, indices, weights = oracle_subgraph(graph, vertices)
    assert sub.indptr.dtype == sub.indices.dtype == np.int64
    assert sub.indptr.tolist() == indptr
    assert sub.indices.tolist() == indices
    assert sub.edge_weights.tolist() == weights
    assert sub.vertex_weights.tolist() == graph.vertex_weights[vertices].tolist()
    assert mapping.tolist() == vertices.tolist()
    assert not np.shares_memory(sub.vertex_weights, graph.vertex_weights)


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_heavy_edge_matching_matches_loop(data):
    graph, seed = data
    rng, ref = make_rng(seed), make_rng(seed)
    match = heavy_edge_matching(graph, rng)
    assert match.dtype == np.int64
    assert match.tolist() == oracle_matching(graph, ref).tolist()
    assert rng.bit_generator.state == ref.bit_generator.state


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_coarse_numbering_matches_loop(data):
    graph, seed = data
    level = coarsen_graph(graph, seed)
    match = heavy_edge_matching(graph, make_rng(seed))
    expected = oracle_numbering(match)
    assert level.fine_to_coarse.dtype == np.int64
    assert level.fine_to_coarse.tolist() == expected.tolist()
    assert level.graph.num_vertices == (expected.max() + 1 if len(expected) else 0)
    assert level.graph.indptr.dtype == level.graph.indices.dtype == np.int64


@given(graphs(integer_weights=True), st.sampled_from([0.05, 0.2, 1.0]))
@settings(max_examples=150, deadline=None)
def test_refine_bisection_matches_loop(data, imbalance):
    """Integer-valued weights (all the coarsener makes from unit weights):
    every gain is exact, so the move sequence is the reference's."""
    graph, seed = data
    part = np.random.default_rng(seed).integers(0, 2, graph.num_vertices)
    target0 = 0.5 * graph.total_vertex_weight()
    got = refine_bisection(graph, part, target0, imbalance=imbalance, rng=seed)
    want = oracle_refine(graph, part, target0, imbalance, 8, make_rng(seed))
    assert got.tolist() == want.tolist()
