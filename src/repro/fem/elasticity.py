"""Linear elasticity in the Navier (Lamé) form of paper Eq. (15):

    −μ Δu − (μ + λ) ∇(∇·u) = f.

The weak form assembled here is

    μ ∫ ∇u : ∇v dx + (μ + λ) ∫ (∇·u)(∇·v) dx = ∫ f · v dx,

discretized with P1 triangles and two displacement unknowns per node.  The
dof numbering is *node-blocked*: dof(node, comp) = 2*node + comp, so that the
graph partitioner can keep both components of a node on one processor (the
paper's TC6 has "two unknowns per grid point").
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.fem.p1_triangle import triangle_geometry
from repro.mesh.mesh import Mesh
from repro.sparse.csr import csr_from_coo


def assemble_elasticity(mesh: Mesh, mu: float, lam: float) -> sp.csr_matrix:
    """Stiffness matrix of the Navier operator on a 2-D P1 mesh.

    Element matrix (6x6, dofs ordered u1_0, u2_0, u1_1, u2_1, u1_2, u2_2):

        K_e = μ A (∇φ_i·∇φ_j) δ_cd  +  (μ+λ) A d_ic d_jd,

    where d_ic = ∂φ_i/∂x_c is the divergence row.
    """
    if mesh.dim != 2:
        raise ValueError("assemble_elasticity supports 2-D meshes")
    if mu <= 0:
        raise ValueError("mu must be positive")
    areas, grads = triangle_geometry(mesh)  # (ne,), (ne, 3, 2)
    ne = mesh.num_elements

    # vector-Laplacian part: kron(scalar stiffness, I2)
    ks = areas[:, None, None] * np.einsum("eid,ejd->eij", grads, grads)  # (ne,3,3)
    local = np.zeros((ne, 6, 6))
    for c in range(2):
        local[:, c::2, c::2] += mu * ks

    # grad-div part: outer product of the divergence rows
    d = grads.reshape(ne, 6)  # d[e, 2*i + c] = ∂φ_i/∂x_c
    local += (mu + lam) * areas[:, None, None] * d[:, :, None] * d[:, None, :]

    # scatter with node-blocked dof numbering
    elems = mesh.elements
    edofs = np.empty((ne, 6), dtype=np.int64)
    edofs[:, 0::2] = 2 * elems
    edofs[:, 1::2] = 2 * elems + 1
    rows = np.repeat(edofs, 6, axis=1).ravel()
    cols = np.tile(edofs, (1, 6)).ravel()
    n = 2 * mesh.num_points
    return csr_from_coo(rows, cols, local.ravel(), (n, n))


def elasticity_load(
    mesh: Mesh, f: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Load vector for a vector volume load ``f: (m,2) points → (m,2) values``."""
    areas, _ = triangle_geometry(mesh)
    centroids = mesh.points[mesh.elements].mean(axis=1)
    fvals = np.asarray(f(centroids), dtype=np.float64)
    if fvals.shape != (mesh.num_elements, 2):
        raise ValueError("f must return an (ne, 2) array")
    contrib = (areas / 3.0)[:, None] * fvals  # per-vertex share of each element
    b = np.zeros(2 * mesh.num_points)
    for c in range(2):
        np.add.at(b, 2 * mesh.elements.ravel() + c,
                  np.repeat(contrib[:, c], 3))
    return b
