"""Shared fixtures: small meshes, systems and partitions reused across tests."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cases.poisson2d import poisson2d_case
from repro.comm.backends import pool
from repro.distributed.matrix import distribute_matrix
from repro.distributed.partition_map import PartitionMap
from repro.fem.assembly import assemble_load, assemble_stiffness
from repro.fem.boundary import apply_dirichlet
from repro.graph.adjacency import graph_from_elements
from repro.graph.partitioner import partition_graph
from repro.mesh.grid2d import structured_rectangle


@pytest.fixture(autouse=True)
def _no_idle_worlds():
    """Every test starts and ends without idle rank worlds: a world one
    test leaves in the pool must not carry state into the next."""
    pool.drain()
    yield
    pool.drain()


@pytest.fixture(scope="session")
def small_mesh():
    """A 17x17 unit-square triangulation."""
    return structured_rectangle(17, 17)


@pytest.fixture(scope="session")
def poisson_system(small_mesh):
    """(A, b, exact) for the TC1 Poisson problem on the small mesh."""
    mesh = small_mesh
    raw = assemble_stiffness(mesh)
    exact = mesh.points[:, 0] * np.exp(mesh.points[:, 1])
    b = -assemble_load(mesh, lambda p: p[:, 0] * np.exp(p[:, 1]))
    bn = mesh.all_boundary_nodes()
    a, rhs = apply_dirichlet(raw, b, bn, exact[bn])
    return a, rhs, exact


@pytest.fixture(scope="session")
def partitioned_poisson(small_mesh, poisson_system):
    """(pm, dmat, rhs, exact) for the small Poisson problem over 4 ranks."""
    a, rhs, exact = poisson_system
    g = graph_from_elements(small_mesh.num_points, small_mesh.elements)
    mem = partition_graph(g, 4, seed=0)
    pm = PartitionMap(g, mem, num_ranks=4)
    dmat = distribute_matrix(a, pm)
    return pm, dmat, rhs, exact


@pytest.fixture(scope="session")
def tiny_case():
    """A fully-built TC1 case small enough for exhaustive checks."""
    return poisson2d_case(n=17)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def random_spd_csr(n: int, density: float, seed: int) -> sp.csr_matrix:
    """Random symmetric positive definite CSR (diagonally dominant)."""
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density, random_state=rng.integers(2**31), format="csr")
    a = (a + a.T) * 0.5
    a = a + sp.diags(np.asarray(np.abs(a).sum(axis=1)).ravel() + 1.0)
    return a.tocsr()


def random_nonsymmetric_csr(n: int, density: float, seed: int) -> sp.csr_matrix:
    """Random diagonally dominant unsymmetric CSR."""
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density, random_state=rng.integers(2**31), format="csr")
    a = a + sp.diags(np.asarray(np.abs(a).sum(axis=1)).ravel() + 1.0)
    return a.tocsr()
