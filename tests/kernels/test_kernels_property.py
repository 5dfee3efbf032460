"""Differential property tests: the array kernels against the reference.

Inputs are deliberately unfriendly — unsorted column indices, explicit
zeros, n in {0, 1}, stored-zero and missing diagonals, integer values (full
of |value| ties and exact cancellations) — and the contract is byte
equality of L, U and the floored-pivot count, or the same exception.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.factor.ilu0 import ilu0
from repro.factor.ilut import ilut
from repro.kernels import triples
from repro.resilience.errors import FactorizationBreakdown


@st.composite
def csr_builders(draw, diagonal="stored"):
    """A zero-argument builder of one unfriendly CSR matrix.

    A builder, not a matrix: ``ensure_csr`` sorts an unsorted CSR input in
    place, so each tier must get its own fresh copy.
    """
    n = draw(st.integers(min_value=0, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    integer = draw(st.booleans())
    rng = np.random.default_rng(seed)
    dense = (
        rng.integers(-3, 4, size=(n, n)).astype(float) if integer
        else rng.standard_normal((n, n))
    )
    mask = rng.random((n, n)) < density
    if diagonal == "stored":
        np.fill_diagonal(mask, True)
        # a third of the pivots start at (or near) zero: floors on both tiers
        idx = np.arange(n)
        dense[idx, idx] = np.where(rng.random(n) < 0.3, 0.0, dense[idx, idx] + 3.0)
    dense[mask & (rng.random((n, n)) < 0.1)] = 0.0  # explicit zeros stay stored

    def build():
        indptr, indices, data = [0], [], []
        order = np.random.default_rng(seed + 1)
        for i in range(n):
            cols = order.permutation(np.flatnonzero(mask[i]))  # unsorted on purpose
            indices.extend(cols.tolist())
            data.extend(dense[i, cols].tolist())
            indptr.append(len(indices))
        return sp.csr_matrix(
            (np.asarray(data, dtype=float), np.asarray(indices, dtype=np.int32),
             np.asarray(indptr, dtype=np.int32)),
            shape=(n, n),
        )

    return build


def _outcome(fn):
    """The factor's bytes, or the exception it raised."""
    try:
        fac = fn()
    except (ValueError, FactorizationBreakdown) as exc:
        return type(exc).__name__, str(exc)
    return tuple(
        (arr.dtype.str, arr.tobytes())
        for m in (fac.l_strict, fac.u_upper)
        for arr in (m.indptr, m.indices, m.data)
    ) + (fac.stats.floored_pivots,)


def _both(fn):
    with kernels.forced_tier("reference"):
        ref = _outcome(fn)
    with kernels.forced_tier("numpy"):
        fast = _outcome(fn)
    return ref, fast


@given(
    csr_builders(),
    st.sampled_from([0.0, 1e-3, 0.1]),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0.0, 0.5]),
    st.sampled_from([None, 0.1]),
)
@settings(max_examples=120, deadline=None)
def test_ilut_matches_reference(build, drop_tol, fill, shift, breakdown_frac):
    ref, fast = _both(lambda: ilut(
        build(), drop_tol, fill, shift=shift, breakdown_frac=breakdown_frac
    ))
    assert ref == fast


@given(csr_builders(), st.sampled_from([0.0, 0.5]), st.sampled_from([None, 0.1]))
@settings(max_examples=120, deadline=None)
def test_ilu0_matches_reference(build, shift, breakdown_frac):
    ref, fast = _both(lambda: ilu0(
        build(), shift=shift, breakdown_frac=breakdown_frac
    ))
    assert ref == fast


@given(csr_builders(diagonal="maybe"))
@settings(max_examples=60, deadline=None)
def test_ilu0_missing_diagonal_raises_the_same_error(build):
    a = build()
    ref, fast = _both(lambda: ilu0(build()))
    assert ref == fast
    missing = np.flatnonzero(
        [i not in a.indices[a.indptr[i]:a.indptr[i + 1]] for i in range(a.shape[0])]
    )
    if missing.size:
        assert ref == (
            "ValueError", f"row {missing[0]} has no stored diagonal entry",
        )


@given(csr_builders(), st.integers(min_value=1, max_value=9))
@settings(max_examples=60, deadline=None)
def test_ilu0_chunking_never_shows(build, chunk):
    """Any split of the triple enumeration gives the same bits."""
    with kernels.forced_tier("numpy"):
        whole = _outcome(lambda: ilu0(build()))
        saved, triples._CHUNK = triples._CHUNK, chunk
        try:
            assert _outcome(lambda: ilu0(build())) == whole
        finally:
            triples._CHUNK = saved
