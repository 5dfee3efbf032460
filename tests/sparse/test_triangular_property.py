"""Property-based tests for the triangular solves."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse.triangular import TriangularFactor


@st.composite
def lower_triangles(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    density = draw(st.floats(min_value=0.0, max_value=0.5))
    rng = np.random.default_rng(seed)
    l = sp.tril(sp.random(n, n, density, random_state=int(rng.integers(2**31))), -1)
    return l.tocsr(), seed


@given(lower_triangles())
@settings(max_examples=60, deadline=None)
def test_unit_lower_solve_inverts_forward_product(data):
    l, seed = data
    n = l.shape[0]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    f = TriangularFactor(l, None, lower=True)
    b = (sp.eye(n) + l) @ x
    assert np.allclose(f.solve(b), x, atol=1e-8 * max(1.0, np.abs(x).max()))


@given(lower_triangles(), st.integers(min_value=1, max_value=10))
@settings(max_examples=30, deadline=None)
def test_upper_solve_with_random_diagonal(data, diag_scale):
    l, seed = data
    n = l.shape[0]
    rng = np.random.default_rng(seed + 1)
    u_strict = l.T.tocsr()
    diag = rng.uniform(1.0, 1.0 + diag_scale, n)
    f = TriangularFactor(u_strict, diag, lower=False)
    x = rng.standard_normal(n)
    b = u_strict @ x + diag * x
    assert np.allclose(f.solve(b), x, atol=1e-8 * max(1.0, np.abs(x).max()))
