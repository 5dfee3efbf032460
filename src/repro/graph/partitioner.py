"""Multilevel graph partitioner (our Metis substitute).

Partitioning follows Metis's recursive-bisection scheme:

1. **Coarsen** by heavy-edge matching until the graph is small.
2. **Initial bisection** of the coarsest graph by greedy BFS region growing
   from a random seed vertex.
3. **Uncoarsen + refine**: project the bisection back level by level,
   applying KL/FM-style boundary refinement at each level.
4. **Recurse** on both halves until the requested number of parts is reached
   (non-power-of-two counts split proportionally).

The paper used Metis with machine-dependent RNGs — it explicitly attributes
iteration-count differences at equal P to different random partitions.  The
``seed`` argument reproduces that sensitivity (bench A4).
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.coarsen import coarsen_graph
from repro.graph.refine import refine_bisection
from repro.utils.rng import make_rng

_COARSEST_SIZE = 128
_MIN_SHRINK = 0.95  # stop coarsening when a level shrinks less than this factor


def _greedy_grow_bisection(
    graph: Graph, target_weight_0: float, rng: np.random.Generator
) -> np.ndarray:
    """Grow side 0 by BFS from a random seed until it reaches its weight target."""
    n = graph.num_vertices
    if n == 0:
        return np.ones(0, dtype=np.int64)
    # breadth-first in visit order: plain lists, so no numpy scalar per edge
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    vw = graph.vertex_weights.tolist()
    part = [1] * n
    visited = [False] * n
    seed = int(rng.integers(n))
    part[seed] = 0
    visited[seed] = True
    w0 = vw[seed]
    frontier = [seed]
    while frontier and w0 < target_weight_0:
        nxt = []
        for v in frontier:
            for u in indices[indptr[v] : indptr[v + 1]]:
                if not visited[u]:
                    visited[u] = True
                    if w0 < target_weight_0:
                        part[u] = 0
                        w0 += vw[u]
                        nxt.append(u)
        frontier = nxt
        if not frontier and w0 < target_weight_0:
            # disconnected graph: restart growth from an unvisited vertex
            remaining = np.flatnonzero(~np.asarray(visited))
            if remaining.size == 0:
                break
            seed = int(remaining[rng.integers(remaining.size)])
            visited[seed] = True
            part[seed] = 0
            w0 += vw[seed]
            frontier = [seed]
    return np.asarray(part, dtype=np.int64)


def _bisect(graph: Graph, frac0: float, rng: np.random.Generator) -> np.ndarray:
    """Multilevel bisection of ``graph`` with side-0 weight fraction ``frac0``."""
    levels = []
    g = graph
    while g.num_vertices > _COARSEST_SIZE:
        level = coarsen_graph(g, rng)
        if level.graph.num_vertices >= _MIN_SHRINK * g.num_vertices:
            break  # matching stalled (e.g. star graphs); stop coarsening
        levels.append(level)
        g = level.graph

    target0 = frac0 * g.total_vertex_weight()
    part = _greedy_grow_bisection(g, target0, rng)
    part = refine_bisection(g, part, target0, rng=rng)

    # levels[i].fine_to_coarse maps from the graph *before* that coarsening:
    # `graph` for i == 0, levels[i-1].graph otherwise.
    for idx in range(len(levels) - 1, -1, -1):
        part = part[levels[idx].fine_to_coarse]
        g_fine = graph if idx == 0 else levels[idx - 1].graph
        target0 = frac0 * g_fine.total_vertex_weight()
        part = refine_bisection(g_fine, part, target0, rng=rng)
    return part


def partition_graph(
    graph: Graph,
    nparts: int,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Partition ``graph`` into ``nparts`` balanced parts.

    Returns a membership vector of part ids in ``[0, nparts)``.
    """
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    n = graph.num_vertices
    if nparts > max(n, 1):
        raise ValueError(f"nparts={nparts} exceeds the graph's {n} vertices")
    rng = make_rng(seed)
    membership = np.zeros(n, dtype=np.int64)
    if nparts == 1:
        return membership

    def recurse(g: Graph, global_ids: np.ndarray, parts: int, first_id: int) -> None:
        if parts == 1:
            membership[global_ids] = first_id
            return
        left = parts // 2
        frac0 = left / parts
        bis = _bisect(g, frac0, rng)
        ids0 = np.flatnonzero(bis == 0)
        ids1 = np.flatnonzero(bis == 1)
        if ids0.size == 0 or ids1.size == 0:
            # degenerate bisection: fall back to an arbitrary even split
            half = max(1, g.num_vertices * left // parts)
            ids0 = np.arange(half)
            ids1 = np.arange(half, g.num_vertices)
        g0, map0 = g.subgraph(ids0)
        g1, map1 = g.subgraph(ids1)
        recurse(g0, global_ids[map0], left, first_id)
        recurse(g1, global_ids[map1], parts - left, first_id + left)

    recurse(graph, np.arange(n, dtype=np.int64), nparts, 0)
    return membership


def edge_cut(graph: Graph, membership: np.ndarray) -> float:
    """Total weight of edges crossing parts (each undirected edge counted once)."""
    cross = membership[graph.edge_rows()] != membership[graph.indices]
    return float(graph.edge_weights[cross].sum()) / 2.0


def partition_sizes(membership: np.ndarray, nparts: int) -> np.ndarray:
    """Vertex count of each part."""
    return np.bincount(membership, minlength=nparts)
