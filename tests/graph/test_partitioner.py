import numpy as np
import pytest

from repro.graph.adjacency import graph_from_elements
from repro.graph.partitioner import edge_cut, partition_graph, partition_sizes
from repro.mesh.grid2d import structured_rectangle


def grid_graph(n=17):
    mesh = structured_rectangle(n, n)
    return graph_from_elements(mesh.num_points, mesh.elements)


class TestPartitionGraph:
    @pytest.mark.parametrize("nparts", [1, 2, 3, 4, 7, 8, 16])
    def test_every_part_nonempty_and_covering(self, nparts):
        g = grid_graph()
        mem = partition_graph(g, nparts, seed=0)
        sizes = partition_sizes(mem, nparts)
        assert sizes.sum() == g.num_vertices
        assert np.all(sizes > 0)

    @pytest.mark.parametrize("nparts", [2, 4, 8])
    def test_balance_within_tolerance(self, nparts):
        g = grid_graph()
        mem = partition_graph(g, nparts, seed=0)
        sizes = partition_sizes(mem, nparts)
        mean = g.num_vertices / nparts
        assert sizes.max() <= 1.6 * mean
        assert sizes.min() >= 0.4 * mean

    def test_cut_beats_random_partition(self):
        g = grid_graph()
        mem = partition_graph(g, 4, seed=0)
        rng = np.random.default_rng(0)
        random_mem = rng.integers(0, 4, g.num_vertices)
        assert edge_cut(g, mem) < 0.5 * edge_cut(g, random_mem)

    def test_cut_scales_like_perimeter(self):
        """For a planar grid, a 4-way cut should be O(n), not O(n^2)."""
        n = 25
        g = grid_graph(n)
        mem = partition_graph(g, 4, seed=0)
        assert edge_cut(g, mem) < 12 * n

    def test_deterministic_for_fixed_seed(self):
        g = grid_graph(9)
        # partition_graph itself, twice: TestCase.membership remembers its
        # result per seed and would compare an array with itself
        a = partition_graph(g, 4, seed=3)
        b = partition_graph(g, 4, seed=3)
        assert np.array_equal(a, b)

    def test_more_parts_than_vertices_is_rejected(self):
        """Used to return empty parts and non-contiguous ids ([4 5 6 0 1 2]
        for a 6-vertex path at nparts=8), which PartitionMap then accepted."""
        path = graph_from_elements(6, np.array([[i, i + 1] for i in range(5)]))
        with pytest.raises(ValueError, match=r"nparts=8 .* 6 vertices"):
            partition_graph(path, 8)
        assert sorted(partition_graph(path, 6).tolist()) == list(range(6))

    def test_seed_changes_partition(self):
        """The paper's RNG-sensitivity: different seeds, different partitions."""
        g = grid_graph()
        a = partition_graph(g, 8, seed=0)
        b = partition_graph(g, 8, seed=1)
        assert not np.array_equal(a, b)

    def test_single_part_is_trivial(self):
        g = grid_graph(5)
        assert np.all(partition_graph(g, 1) == 0)

    def test_invalid_nparts_raises(self):
        with pytest.raises(ValueError):
            partition_graph(grid_graph(5), 0)

    def test_parts_are_mostly_connected(self):
        """A quality partitioner produces (nearly) connected subdomains."""
        import networkx as nx

        g = grid_graph()
        mem = partition_graph(g, 4, seed=0)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.num_vertices))
        for v in range(g.num_vertices):
            for u in g.neighbors(v):
                if mem[u] == mem[v]:
                    nxg.add_edge(v, u)
        n_components = sum(
            len(list(nx.connected_components(nxg.subgraph(np.flatnonzero(mem == p)))))
            for p in range(4)
        )
        assert n_components <= 8  # allow a couple of stray fragments


class TestEdgeCut:
    def test_zero_for_single_part(self):
        g = grid_graph(5)
        assert edge_cut(g, np.zeros(g.num_vertices, dtype=int)) == 0.0

    def test_counts_each_edge_once(self):
        g = graph_from_elements(2, np.empty((0, 3), dtype=int))
        # manual 2-vertex graph with one edge
        import scipy.sparse as sp

        from repro.graph.adjacency import Graph

        a = sp.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        g = Graph(a.indptr.astype(np.int64), a.indices.astype(np.int64), a.data)
        assert edge_cut(g, np.array([0, 1])) == 2.0
