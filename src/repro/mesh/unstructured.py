"""Unstructured 2-D mesh generation (Test Case 3 substitute).

The paper's Test Case 3 runs Poisson on a "special 2D domain" (its Figure 3,
whose geometry is not recoverable from the text) with an unstructured grid of
521,185 points.  We substitute a plate-with-hole domain — the unit square with
a circular hole — which exercises exactly the same code path: a genuinely
unstructured triangulation with irregular vertex degrees, partitioned by the
general graph partitioner.  See DESIGN.md §2.

The generator seeds a jittered lattice, inserts exact points on the hole
circle, Delaunay-triangulates (scipy.spatial), and discards triangles whose
centroid falls inside the hole.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh import Mesh, boundary_edges_2d
from repro.utils.rng import make_rng


def plate_with_hole(
    target_h: float = 0.02,
    hole_center: tuple[float, float] = (0.5, 0.5),
    hole_radius: float = 0.25,
    jitter: float = 0.25,
    seed: int | np.random.Generator | None = 0,
) -> Mesh:
    """Unstructured triangulation of the unit square minus a disc.

    Parameters
    ----------
    target_h:
        Approximate mesh spacing (the paper-scale grid corresponds to
        ``target_h ≈ 0.0015``).
    jitter:
        Interior lattice points are perturbed by ``jitter * target_h`` in each
        coordinate, so the triangulation is genuinely irregular.
    """
    if not 0.0 < hole_radius < 0.5:
        raise ValueError("hole_radius must lie in (0, 0.5)")
    rng = make_rng(seed)
    n = max(4, int(round(1.0 / target_h)) + 1)
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    pts = np.column_stack([X.ravel(), Y.ravel()])

    cx, cy = hole_center
    r = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    on_outer = (
        (pts[:, 0] == 0.0) | (pts[:, 0] == 1.0) | (pts[:, 1] == 0.0) | (pts[:, 1] == 1.0)  # repro: noqa(RPR001) — lattice points sit exactly on the box
    )
    # keep lattice points clearly outside the hole (with a guard band so no
    # sliver triangles appear between lattice and circle points)
    keep = r > hole_radius + 0.5 * target_h
    pts = pts[keep]
    on_outer = on_outer[keep]

    # jitter interior points only
    interior = ~on_outer
    h = 1.0 / (n - 1)
    pts[interior] += (rng.random((int(interior.sum()), 2)) - 0.5) * 2 * jitter * h
    # jitter must not push points into the guard band or outside the square
    pts = np.clip(pts, 0.0, 1.0)
    r = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    bad = (r < hole_radius + 0.25 * target_h) & interior
    if np.any(bad):
        scale = (hole_radius + 0.5 * target_h) / r[bad]
        pts[bad] = np.column_stack(
            [cx + (pts[bad, 0] - cx) * scale, cy + (pts[bad, 1] - cy) * scale]
        )

    # exact points on the hole circle
    circumference = 2 * np.pi * hole_radius
    m = max(8, int(round(circumference / h)))
    theta = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    circle = np.column_stack(
        [cx + hole_radius * np.cos(theta), cy + hole_radius * np.sin(theta)]
    )
    points = np.vstack([pts, circle])

    from scipy.spatial import Delaunay  # only TC3 meshes load scipy.spatial

    tri = Delaunay(points)
    cent = points[tri.simplices].mean(axis=1)
    outside = np.hypot(cent[:, 0] - cx, cent[:, 1] - cy) > hole_radius
    elements = tri.simplices[outside].astype(np.int64)

    # drop points orphaned by hole removal and renumber
    used = np.unique(elements)
    remap = np.full(len(points), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    mesh = Mesh(points[used], remap[elements])

    # classify boundary from the actual triangulation
    bedges = boundary_edges_2d(mesh)
    bnodes = np.unique(bedges)
    p = mesh.points[bnodes]
    rb = np.hypot(p[:, 0] - cx, p[:, 1] - cy)
    on_hole = rb < hole_radius + 0.5 * h
    mesh.boundary_sets = {
        "outer": bnodes[~on_hole],
        "hole": bnodes[on_hole],
    }
    return mesh
