"""Scalar apply-phase sweeps — the readable specification.

The apply hot path (one forward + one backward triangular sweep per
preconditioner application, plus the CSR matvec the Krylov loop wraps
around it) has the same two-tier structure as the factorization kernels:
these scalar loops are the *specification* (and the reference tier), and
the compiled tier (:mod:`repro.kernels.apply`) must reproduce their exact
IEEE-754 operation sequence.

The operation order is the contract (docs/performance.md, "Apply phase"):

* ``forward_unit`` — rows ascending; within a row the products are
  subtracted from the accumulator one at a time in ascending column order
  (no dot-then-subtract, no FMA).
* ``backward_unit`` — rows descending; within a row the products are
  subtracted in *descending* column order.  This mirrors a column-oriented
  backward sweep (columns processed n-1..0, each finalized unknown
  eliminated from the rows above it), which is what the compiled tier
  executes — so the row-oriented spec must subtract in the same order.
* ``csr_matvec`` — per row, products accumulate into a sum starting at 0.0
  in ascending column order; the row result is stored once.

Non-unit triangles are handled *outside* these sweeps: the factor object
stores its strictly triangular part column-scaled by the inverse diagonal
(``t̃_ij = t_ij · invd_j``) and multiplies the sweep output elementwise by
``invd`` afterwards — one shared elementwise operation, identical in every
tier, so the sweeps themselves only ever see unit triangles.

Keep edits in semantic lockstep with the compiled backend checks in
``tests/kernels/test_apply_tiers.py``.
"""

from __future__ import annotations


def forward_unit(indptr, indices, data, x):
    """In-place solve of ``(I + L) x = b`` with ``L`` strictly lower CSR.

    ``x`` holds ``b`` on entry and the solution on exit.
    """
    n = len(x)
    for i in range(n):
        acc = x[i]
        for jj in range(indptr[i], indptr[i + 1]):
            acc -= data[jj] * x[indices[jj]]
        x[i] = acc
    return x


def backward_unit(indptr, indices, data, x):
    """In-place solve of ``(I + U) x = b`` with ``U`` strictly upper CSR.

    Rows descending; per-row products subtracted in descending column
    order (see module docstring).  ``x`` holds ``b`` on entry.
    """
    n = len(x)
    for i in range(n - 1, -1, -1):
        acc = x[i]
        for jj in range(indptr[i + 1] - 1, indptr[i] - 1, -1):
            acc -= data[jj] * x[indices[jj]]
        x[i] = acc
    return x


def csr_matvec(indptr, indices, data, x, y):
    """``y = A x`` for CSR ``A``; per-row left-to-right accumulation."""
    n = len(y)
    for i in range(n):
        s = 0.0
        for jj in range(indptr[i], indptr[i + 1]):
            s += data[jj] * x[indices[jj]]
        y[i] = s
    return y
