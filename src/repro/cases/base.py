"""Test-case container and partitioning helpers."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.graph.adjacency import Graph, graph_from_elements, graph_from_matrix
from repro.graph.geometric import box_partition_2d, box_partition_3d
from repro.graph.partitioner import partition_graph
from repro.mesh.mesh import Mesh

#: partitions a case remembers; the oldest goes first
MEMBERSHIP_MEMO_SIZE = 8


@dataclass
class TestCase:
    """One assembled linear-system test case.

    Attributes
    ----------
    key, title:
        Identifiers ("tc1", "Poisson 2D unit square", ...).
    mesh:
        The computational grid.
    matrix, rhs:
        The system after boundary treatment (what FGMRES solves).
    raw_matrix:
        The pre-elimination operator; its structural pattern defines the
        dof-level coupling graph used by the partition map.
    exact:
        Nodal values of the exact solution when the paper prescribes one.
    x0:
        Paper-specified initial guess (zeros except Dirichlet dofs; the heat
        case starts from the initial condition).
    dofs_per_node:
        1 for scalar PDEs, 2 for the elasticity case.
    """

    key: str
    title: str
    mesh: Mesh
    matrix: sp.csr_matrix
    rhs: np.ndarray
    raw_matrix: sp.csr_matrix
    x0: np.ndarray
    exact: np.ndarray | None = None
    dofs_per_node: int = 1
    _node_graph: Graph | None = field(default=None, repr=False)
    _coupling_graph: Graph | None = field(default=None, repr=False)
    _memberships: dict = field(default_factory=dict, repr=False, compare=False)
    _memberships_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def num_dofs(self) -> int:
        return self.matrix.shape[0]

    @property
    def node_graph(self) -> Graph:
        """Node-level adjacency (what the grid partitioner balances)."""
        if self._node_graph is None:
            self._node_graph = graph_from_elements(
                self.mesh.num_points, self.mesh.elements
            )
        return self._node_graph

    @property
    def coupling_graph(self) -> Graph:
        """Dof-level structural coupling graph (drives the partition map)."""
        if self._coupling_graph is None:
            if self.dofs_per_node == 1:
                self._coupling_graph = self.node_graph
            else:
                self._coupling_graph = graph_from_matrix(self.raw_matrix)
        return self._coupling_graph

    def membership(
        self, nparts: int, seed: int = 0, scheme: str = "general"
    ) -> np.ndarray:
        """Dof-level partition membership (read-only), see :meth:`partition`.

        A partition is a per-case precomputation: for an ``int`` seed the
        last ``MEMBERSHIP_MEMO_SIZE`` distinct ``(nparts, seed, scheme)`` are
        remembered and the same array is handed out again.  ``seed=None`` or
        a ``Generator`` draws a new partition per call and is never
        remembered.
        """
        if not isinstance(seed, int):
            return self.partition(nparts, seed, scheme)
        key = (nparts, seed, scheme)
        with self._memberships_lock:  # held while partitioning: once per key
            if key not in self._memberships:
                fresh = self.partition(nparts, seed, scheme)
                if len(self._memberships) >= MEMBERSHIP_MEMO_SIZE:
                    del self._memberships[next(iter(self._memberships))]
                self._memberships[key] = fresh
            return self._memberships[key]

    def partition(
        self,
        nparts: int,
        seed: int | np.random.Generator | None = 0,
        scheme: str = "general",
    ) -> np.ndarray:
        """Compute the dof-level partition membership, read-only.

        ``scheme`` selects the partitioner: "general" (the multilevel graph
        partitioner, our Metis substitute), "box" (the simple geometric
        scheme of Sec. 5.1, structured grids only), or "spectral" (recursive
        spectral bisection — the classical quality reference).
        Partitioning happens at node level — both unknowns of an elasticity
        node always land on the same processor — then expands to dofs.
        """
        if scheme == "general":
            node_mem = partition_graph(self.node_graph, nparts, seed=seed)
        elif scheme == "spectral":
            from repro.graph.spectral import spectral_partition

            node_mem = spectral_partition(self.node_graph, nparts, seed=seed)
        elif scheme == "box":
            shape = self.mesh.structured_shape
            if shape is None:
                raise ValueError("box partitioning requires a structured grid")
            if len(shape) == 2:
                node_mem = box_partition_2d(shape[0], shape[1], nparts)
            else:
                node_mem = box_partition_3d(shape[0], shape[1], shape[2], nparts)
        else:
            raise ValueError(f"unknown partitioning scheme {scheme!r}")
        if self.dofs_per_node > 1:
            node_mem = np.repeat(node_mem, self.dofs_per_node)
        node_mem.setflags(write=False)
        return node_mem

    def solution_error(self, x: np.ndarray) -> float | None:
        """Max-norm error against the exact solution, when available."""
        if self.exact is None:
            return None
        return float(np.abs(x - self.exact).max())
