import numpy as np
import scipy.sparse as sp

from repro.graph.adjacency import Graph, graph_from_elements, graph_from_matrix
from repro.mesh.grid2d import structured_rectangle


class TestGraphFromMatrix:
    def test_symmetrizes_pattern(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        g = graph_from_matrix(a)
        assert set(g.neighbors(0)) == {1}
        assert set(g.neighbors(1)) == {0}

    def test_excludes_diagonal(self):
        g = graph_from_matrix(sp.eye(5, format="csr"))
        assert all(g.degree(v) == 0 for v in range(5))

    def test_keeps_structural_zero_couplings(self):
        """Explicitly-stored zeros are couplings (the uniform-grid Poisson
        cross terms are exactly zero but structurally present)."""
        a = sp.csr_matrix(
            (np.array([1.0, 0.0, 1.0]), np.array([0, 1, 1]), np.array([0, 2, 3])),
            shape=(2, 2),
        )
        g = graph_from_matrix(a)
        assert set(g.neighbors(0)) == {1}


class TestGraphFromElements:
    def test_single_triangle_is_complete(self):
        g = graph_from_elements(3, np.array([[0, 1, 2]]))
        for v in range(3):
            assert set(g.neighbors(v)) == {0, 1, 2} - {v}

    def test_matches_fe_matrix_pattern(self):
        mesh = structured_rectangle(6, 6)
        g = graph_from_elements(mesh.num_points, mesh.elements)
        # interior point of a right-triangulated grid has 6 neighbors
        interior = 2 * 6 + 2  # (ix=2, iy=2)
        assert g.degree(interior) == 6

    def test_shared_edges_deduplicated(self):
        g = graph_from_elements(4, np.array([[0, 1, 2], [1, 2, 3]]))
        assert set(g.neighbors(1)) == {0, 2, 3}
        assert g.degree(1) == 3


class TestSubgraph:
    def test_induced_edges_only(self):
        g = graph_from_elements(4, np.array([[0, 1, 2], [1, 2, 3]]))
        sub, mapping = g.subgraph(np.array([0, 3]))
        assert sub.num_vertices == 2
        assert sub.degree(0) == 0  # 0 and 3 are not adjacent
        assert mapping.tolist() == [0, 3]

    def test_vertex_weights_carried(self):
        g = graph_from_elements(3, np.array([[0, 1, 2]]))
        g.vertex_weights = np.array([1.0, 2.0, 3.0])
        sub, _ = g.subgraph(np.array([1, 2]))
        assert sub.vertex_weights.tolist() == [2.0, 3.0]

    def test_index_arrays_are_int64_like_every_other_graph(self):
        mesh = structured_rectangle(5, 5)
        g = graph_from_elements(mesh.num_points, mesh.elements)
        sub, _ = g.subgraph(np.arange(0, 25, 2))
        for graph in (g, sub, graph_from_matrix(sp.eye(4, format="csr"))):
            assert graph.indptr.dtype == graph.indices.dtype == np.int64

    def test_total_vertex_weight(self):
        g = graph_from_elements(3, np.array([[0, 1, 2]]))
        assert g.total_vertex_weight() == 3.0
