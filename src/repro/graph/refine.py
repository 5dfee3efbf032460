"""Boundary refinement of a bisection (Kernighan–Lin / FM style).

After projecting a coarse bisection to a finer level, vertices near the cut
are greedily moved across it when that reduces the cut without breaking the
balance constraint.  This is the simplified single-vertex-move FM variant used
inside multilevel partitioners.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph
from repro.utils.rng import make_rng


def boundary_vertices(graph: Graph, part: np.ndarray) -> np.ndarray:
    """Vertices with at least one neighbor in a different part, ascending."""
    rows = graph.edge_rows()
    cross = part[rows] != part[graph.indices]
    return np.flatnonzero(np.bincount(rows[cross], minlength=graph.num_vertices))


def refine_bisection(
    graph: Graph,
    part: np.ndarray,
    target_weight_0: float,
    imbalance: float = 0.05,
    max_passes: int = 8,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Greedy boundary refinement of a 0/1 partition vector.

    ``target_weight_0`` is the desired total vertex weight of side 0; moves
    that would push side 0 outside ``target ± imbalance*total`` are rejected.
    Passes repeat until no improving move was made.
    """
    rng = make_rng(rng)
    part = part.copy()
    total = graph.total_vertex_weight()
    w0 = float(graph.vertex_weights[part == 0].sum())
    lo = target_weight_0 - imbalance * total
    hi = target_weight_0 + imbalance * total
    # the move sweep is order-dependent: it reads plain lists, not numpy scalars
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    weights, vw = graph.edge_weights.tolist(), graph.vertex_weights.tolist()

    for _ in range(max_passes):
        improved = False
        bverts = boundary_vertices(graph, part)
        if bverts.size == 0:
            break
        rng.shuffle(bverts)
        side = part.tolist()
        for v in bverts.tolist():
            # cut reduction if v switches sides: external - internal weight
            external = internal = 0.0
            for k in range(indptr[v], indptr[v + 1]):
                if side[indices[k]] != side[v]:
                    external += weights[k]
                else:
                    internal += weights[k]
            if external - internal <= 0:
                continue
            new_w0 = w0 - vw[v] if side[v] == 0 else w0 + vw[v]
            if not (lo <= new_w0 <= hi):
                continue
            side[v] ^= 1
            part[v] = side[v]
            w0 = new_w0
            improved = True
        if not improved:
            break
    return part
