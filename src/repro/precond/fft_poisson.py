"""FFT-based fast Poisson solver (sine-transform diagonalization).

The additive Schwarz comparison of paper Sec. 5.2 uses "one Conjugate
Gradient iteration accelerated by a special FFT-based preconditioner" as its
subdomain solver.  On a uniform right-triangulated square, the interior P1
stiffness operator is exactly the 5-point stencil [−1; −1, 4, −1; −1]
(independent of h in 2D), which the type-I discrete sine transform
diagonalizes: eigenvalues λ_jk = (2 − 2cos(jπ/(mx+1))) + (2 − 2cos(kπ/(my+1))).
"""

from __future__ import annotations

import numpy as np


class FFTPoissonSolver:
    """Exact solver for the 5-point Dirichlet Laplacian on an mx × my box."""

    def __init__(self, mx: int, my: int, scale: float = 1.0) -> None:
        if mx < 1 or my < 1:
            raise ValueError("box dimensions must be >= 1")
        if scale == 0.0:  # repro: noqa(RPR001) — exact-zero argument validation
            raise ValueError("scale must be nonzero")
        self.mx = mx
        self.my = my
        self.scale = scale
        jx = np.arange(1, mx + 1)
        jy = np.arange(1, my + 1)
        lx = 2.0 - 2.0 * np.cos(jx * np.pi / (mx + 1))
        ly = 2.0 - 2.0 * np.cos(jy * np.pi / (my + 1))
        self._eig = lx[:, None] + ly[None, :]  # (mx, my), all positive

    def solve(self, w: np.ndarray) -> np.ndarray:
        """Solve (scale · A5) z = w; ``w`` flat of length mx*my (x fastest? no:

        ``w`` is interpreted as C-ordered (mx, my) — callers reshape their
        lattice data accordingly and the transform is separable, so the axis
        convention only needs to be consistent.
        """
        w = np.asarray(w, dtype=np.float64)
        if w.shape == (self.mx * self.my,):
            w = w.reshape(self.mx, self.my)
        elif w.shape != (self.mx, self.my):
            raise ValueError(f"expected ({self.mx}, {self.my}) data, got {w.shape}")
        from scipy.fft import dstn, idstn  # only Schwarz's FFT solve loads scipy.fft

        what = dstn(w, type=1)
        zhat = what / self._eig
        z = idstn(zhat, type=1) / self.scale
        return z.ravel()

    def flops(self) -> float:
        """Approximate cost of one solve: two 2-D DSTs plus the scaling."""
        m = self.mx * self.my
        return 2.0 * 5.0 * m * max(np.log2(max(m, 2)), 1.0) + 2.0 * m
