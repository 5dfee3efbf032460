"""The bordered ILUT window against the reference kernel.

A block in the interior-first order ``[B F; E C]`` has a narrow band in B
and a wide one overall, because its interface rows and columns sit last.
The window keeps B's band, stores each leading row's border columns and the
trailing rows whole, and must factor byte-identically to
:func:`repro.factor.reference.ilut_reference` at *every* split s, not just
the one :func:`repro.kernels.band.window` picks: fill stays inside the
leading block's band, and everything else is stored whole.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.factor.ilut import ilut
from repro.kernels import band
from tests.kernels.test_kernels_property import _both, _outcome, csr_builders


def _lead_bw(a, s):
    """Bandwidth of the leading s x s block (>= 1, as :func:`band.window`)."""
    coo = a.tocoo()
    keep = (coo.row < s) & (coo.col < s)
    return max(int(np.abs(coo.row - coo.col)[keep].max(initial=0)), 1)


@contextmanager
def _split(s):
    """Make the fast tier factor on the window split at ``s``."""
    def window(n, indptr, indices, cap=None):
        a = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
        return min(s, n), _lead_bw(a, min(s, n)), 0

    with mock.patch.object(band, "window", window):
        yield


def _bordered(n_int, nb, bw, *, seed, integer=False, zero_rows=False,
              zero_cols=False):
    """An interior-first block: B banded (half-width ``bw``), F, E, C sparse."""
    rng = np.random.default_rng(seed)
    n = n_int + nb

    def values(shape):
        if integer:
            return rng.integers(-2, 3, size=shape).astype(float)
        return rng.standard_normal(shape)

    dense = values((n, n)) * (rng.random((n, n)) < 0.4)
    i, j = np.indices((n, n))
    lead = (i < n_int) & (j < n_int)
    dense[lead & (np.abs(i - j) > bw)] = 0.0
    if zero_rows:
        dense[n_int:, :n_int] = 0.0
    if zero_cols:
        dense[:n_int, n_int:] = 0.0
    np.fill_diagonal(dense, np.where(rng.random(n) < 0.2, 0.0, 4.0 + rng.random(n)))
    return sp.csr_matrix(dense)


def _assert_split_matches(a, s, drop_tol, fill, shift=0.0):
    with _split(s):
        ref, fast = _both(lambda: ilut(a.copy(), drop_tol, fill, shift=shift))
    assert ref == fast


@pytest.mark.parametrize("name,kw,drop_tol,fill,shift", [
    ("empty border", dict(n_int=30, nb=0, bw=3, seed=0), 1e-3, 4, 0.0),
    ("one-row border", dict(n_int=30, nb=1, bw=3, seed=1), 1e-3, 4, 0.0),
    ("zero border rows", dict(n_int=25, nb=4, bw=2, seed=2, zero_rows=True), 1e-3, 4, 0.0),
    ("zero border columns", dict(n_int=25, nb=4, bw=2, seed=3, zero_cols=True), 1e-3, 4, 0.0),
    ("shift", dict(n_int=30, nb=5, bw=3, seed=4), 1e-2, 5, 0.25),
    ("no dropping", dict(n_int=30, nb=5, bw=4, seed=5), 0.0, 40, 0.0),
    ("fill-cap ties", dict(n_int=30, nb=6, bw=4, seed=6, integer=True), 0.0, 2, 0.0),
])
def test_interior_first_block_at_its_interface_split(name, kw, drop_tol, fill, shift):
    a = _bordered(**kw)
    _assert_split_matches(a, kw["n_int"], drop_tol, fill, shift)


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.booleans(),
    st.sampled_from([0.0, 1e-3, 0.1]),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.0, 0.5]),
)
@settings(max_examples=80, deadline=None)
def test_random_bordered_blocks(n_int, nb, bw, seed, integer, drop_tol, fill, shift):
    a = _bordered(n_int, nb, bw, seed=seed, integer=integer)
    _assert_split_matches(a, n_int, drop_tol, fill, shift)


@given(
    csr_builders(),
    st.integers(min_value=0, max_value=24),
    st.sampled_from([0.0, 1e-3, 0.1]),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=80, deadline=None)
def test_any_split_of_any_matrix(build, s, drop_tol, fill):
    """Unsorted indices, explicit zeros, floored pivots: the split never shows."""
    with _split(s):
        ref, fast = _both(lambda: ilut(build(), drop_tol, fill))
    assert ref == fast


def test_over_the_cap_the_window_takes_the_interface_split(monkeypatch):
    # the whole band is wider than the square; B's band is 2 * 2 + 1 wide
    a = _bordered(80, 6, 2, seed=7)
    n = a.shape[0]
    plain = 8 * n * n
    assert band.window(n, a.indptr, a.indices) == (0, 1, plain)
    monkeypatch.setattr(kernels, "BAND_MEM_CAP", plain - 1)
    s, bw, nbytes = band.window(n, a.indptr, a.indices, kernels.BAND_MEM_CAP)
    assert (s, bw) == (80, 2)
    assert nbytes == 8 * (80 * (2 * 2 + 1 + 6) + 6 * n) < plain
    with kernels.forced_tier("numpy"):
        fast = _outcome(lambda: ilut(a, 1e-3, 5))
    with kernels.forced_tier("reference"):
        assert _outcome(lambda: ilut(a, 1e-3, 5)) == fast
