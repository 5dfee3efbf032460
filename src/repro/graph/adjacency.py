"""Adjacency graphs in CSR form.

A :class:`Graph` is an undirected weighted graph stored like a symmetric
sparse matrix pattern: for each vertex a slice of neighbor indices and edge
weights, plus per-vertex weights (used for balance during coarsening, where a
coarse vertex represents several fine vertices).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.utils.validation import ensure_csr


@dataclass
class Graph:
    """Undirected graph in CSR adjacency form."""

    indptr: np.ndarray
    indices: np.ndarray
    edge_weights: np.ndarray
    vertex_weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.vertex_weights is None:
            self.vertex_weights = np.ones(self.num_vertices, dtype=np.float64)

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_weights_of(self, v: int) -> np.ndarray:
        return self.edge_weights[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def total_vertex_weight(self) -> float:
        return float(self.vertex_weights.sum())

    def edge_rows(self) -> np.ndarray:
        """Source vertex of every stored edge (the CSR row index, expanded)."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr))

    def subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``; returns (subgraph, old index per new vertex).

        New vertex ``i`` is ``vertices[i]``.  Each row keeps the neighbour
        order (and weights) it has in this graph, relabelled, so sorted rows
        and sorted ``vertices`` give sorted rows.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        m = len(vertices)
        new_id = np.full(self.num_vertices, -1, dtype=np.int64)
        new_id[vertices] = np.arange(m, dtype=np.int64)
        # one gather over the indptr[vertices] segments, in row order
        starts = self.indptr[vertices]
        counts = self.indptr[vertices + 1] - starts
        offsets = np.cumsum(counts) - counts
        pos = np.repeat(starts - offsets, counts) + np.arange(counts.sum())
        cols = new_id[self.indices[pos]]
        keep = cols >= 0
        rows = np.repeat(np.arange(m, dtype=np.int64), counts)[keep]
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
        g = Graph(indptr, cols[keep], self.edge_weights[pos[keep]], self.vertex_weights[vertices])
        return g, vertices


def graph_from_matrix(a: sp.spmatrix) -> Graph:
    """Adjacency graph of a sparse matrix pattern (off-diagonal, symmetrized).

    This is the graph the paper partitions: vertices are unknowns (or grid
    points), edges are nonzero couplings.
    """
    a = ensure_csr(a).copy()
    # binarize stored entries first: structural zeros (e.g. the exactly-zero
    # cross couplings of a uniform right-triangle stiffness matrix) are still
    # couplings of the assembly and must appear as graph edges
    a.data[:] = 1.0
    pattern = ensure_csr(a + a.T)
    pattern.setdiag(0.0)
    pattern.eliminate_zeros()
    weights = np.ones_like(pattern.data)
    return Graph(pattern.indptr.astype(np.int64), pattern.indices.astype(np.int64), weights)


def graph_from_elements(num_points: int, elements: np.ndarray) -> Graph:
    """Nodal adjacency graph of a finite-element mesh.

    Two points are adjacent iff they share an element — exactly the sparsity
    pattern of the assembled FE matrix, so partitioning this graph partitions
    the matrix rows.
    """
    elements = np.asarray(elements, dtype=np.int64)
    nper = elements.shape[1]
    rows, cols = [], []
    for i in range(nper):
        for j in range(nper):
            if i != j:
                rows.append(elements[:, i])
                cols.append(elements[:, j])
    a = sp.coo_matrix(
        (np.ones(len(rows) * len(elements), dtype=np.float64),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(num_points, num_points),
    ).tocsr()
    a.sum_duplicates()
    a.data[:] = 1.0
    return Graph(a.indptr.astype(np.int64), a.indices.astype(np.int64), a.data)
