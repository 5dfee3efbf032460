"""Graph coarsening by heavy-edge matching.

The first phase of a multilevel partitioner (Karypis & Kumar's Metis scheme):
repeatedly contract a matching that prefers heavy edges, so that the coarse
graph preserves the cut structure of the fine graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graph.adjacency import Graph
from repro.utils.rng import make_rng


@dataclass
class CoarseLevel:
    """One level of the coarsening hierarchy.

    ``fine_to_coarse[v]`` gives the coarse vertex that fine vertex ``v`` was
    contracted into.
    """

    graph: Graph
    fine_to_coarse: np.ndarray


def heavy_edge_matching(graph: Graph, rng: np.random.Generator) -> np.ndarray:
    """Compute a heavy-edge matching.

    Visits vertices in random order; each unmatched vertex is matched with its
    unmatched neighbor of largest edge weight (ties broken by first
    occurrence).  Returns ``match`` with ``match[v]`` = partner (or ``v``
    itself if unmatched).
    """
    n = graph.num_vertices
    # an order-dependent greedy sweep: plain lists, so no numpy scalar per edge
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    weights = graph.edge_weights.tolist()
    match = [-1] * n
    for v in rng.permutation(n).tolist():
        if match[v] >= 0:
            continue
        best, best_w = v, -np.inf
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            if match[u] < 0 and u != v and weights[k] > best_w:
                best, best_w = u, weights[k]
        match[v] = best
        match[best] = v
    return np.asarray(match, dtype=np.int64)


def coarsen_graph(graph: Graph, rng: np.random.Generator | int | None = None) -> CoarseLevel:
    """Contract a heavy-edge matching, producing the next-coarser graph.

    Edge weights between coarse vertices are the sums of the fine edge weights
    crossing them; vertex weights accumulate so balance is preserved.
    """
    rng = make_rng(rng)
    n = graph.num_vertices
    match = heavy_edge_matching(graph, rng)

    # a pair is numbered where its smaller endpoint falls in vertex order
    vertex = np.arange(n, dtype=np.int64)
    first = np.minimum(vertex, match)
    is_first = first == vertex
    fine_to_coarse = (np.cumsum(is_first) - 1)[first]
    m = int(np.count_nonzero(is_first))

    rows = np.repeat(fine_to_coarse, np.diff(graph.indptr))
    cols = fine_to_coarse[graph.indices]
    keep = rows != cols  # drop self-loops created by contraction
    a = sp.coo_matrix(
        (graph.edge_weights[keep], (rows[keep], cols[keep])), shape=(m, m)
    ).tocsr()
    a.sum_duplicates()
    vweights = np.bincount(fine_to_coarse, weights=graph.vertex_weights, minlength=m)
    coarse = Graph(a.indptr.astype(np.int64), a.indices.astype(np.int64), a.data, vweights)
    return CoarseLevel(graph=coarse, fine_to_coarse=fine_to_coarse)
