"""Differential property tests: the array kernels against the reference.

Inputs are deliberately unfriendly — unsorted column indices, explicit
zeros, n in {0, 1}, stored-zero and missing diagonals, integer values (full
of |value| ties and exact cancellations) — and the contract is byte
equality of L, U and the floored-pivot count, or the same exception.
"""

import contextlib
import functools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from repro import CASE_BUILDERS, faults, kernels
from repro.distributed.matrix import distribute_matrix
from repro.distributed.partition_map import PartitionMap
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


# -- MILU and the pivot hooks on the array kernels ------------------------------

@functools.lru_cache(maxsize=None)
def _structured():
    """FE owned blocks (tc1 n = 17 over two ranks) and an arrow pointing the
    wrong way: pivot 0 pairs all 399 lower with all 399 upper entries."""
    case = CASE_BUILDERS["tc1"](17)
    pm = PartitionMap(case.coupling_graph, case.membership(2, seed=0), num_ranks=2)
    dmat = distribute_matrix(case.matrix, pm)
    n = 400
    arrow = sp.lil_matrix((n, n))
    arrow.setdiag(4.0)
    arrow[0, :] = 1.0
    arrow[:, 0] = 1.0
    return [dmat.owned_square[0], dmat.owned_square[1], sp.csr_matrix(arrow)]


def _hooked(tier, fn, spec):
    """``fn``'s outcome under ``tier`` and a fresh fault plan of ``spec``
    (``None`` = no plan), with the faults the plan injected."""
    plan = faults.FaultPlan(faults.FaultSpec(**spec)) if spec else None
    with kernels.forced_tier(tier), faults.inject(plan):
        return _outcome(fn), repr(plan.injected) if plan else None


@contextlib.contextmanager
def _chunk(size):
    saved, triples._CHUNK = triples._CHUNK, size
    try:
        yield
    finally:
        triples._CHUNK = saved


_SPECS = st.one_of(
    st.none(),
    st.fixed_dictionaries({
        "kind": st.sampled_from(["bad-pivot", "tiny-pivot"]),
        "count": st.sampled_from([-1, 1, 3]),
        "start": st.integers(min_value=0, max_value=4),
        "stride": st.integers(min_value=1, max_value=3),
        "value": st.sampled_from([1e-300, 1e-8]),
    }),
)


@pytest.mark.parametrize("chunk", [triples._CHUNK, 7, 1])
@given(csr_builders(), st.booleans(), st.sampled_from([0.0, 0.3]), _SPECS)
@settings(max_examples=60, deadline=None)
def test_milu_and_hooks_on_the_triples(chunk, build, modified, shift, spec):
    """A chunk of 7 or 1 candidates splits pivot groups; every split gives
    the reference's bytes, floored count and injected faults."""
    with _chunk(chunk), np.errstate(all="ignore"):
        ref, fast = (
            _hooked(tier, lambda: ilu0(build(), modified, shift=shift), spec)
            for tier in ("reference", "numpy")
        )
    assert ref == fast


@pytest.mark.parametrize("chunk", [triples._CHUNK, 7, 1])
@pytest.mark.parametrize("which", [0, 1, 2], ids=["fe0", "fe1", "arrow"])
@pytest.mark.parametrize("modified", [False, True])
@pytest.mark.parametrize("kind", [None, "bad-pivot", "tiny-pivot"])
def test_milu_and_hooks_on_structured_blocks(chunk, which, modified, kind):
    a = _structured()[which]
    spec = kind and {"kind": kind, "count": 5, "start": 2, "stride": 3}
    with _chunk(chunk), np.errstate(all="ignore"):
        ref, fast = (
            _hooked(tier, lambda: ilu0(a, modified, shift=0.3 * modified), spec)
            for tier in ("reference", "numpy")
        )
    assert ref == fast


@given(
    csr_builders(), st.sampled_from([0.0, 1e-3]), st.integers(min_value=1, max_value=6),
    _SPECS,
)
@settings(max_examples=80, deadline=None)
def test_hooks_on_the_window_sweep(build, drop_tol, fill, spec):
    """The window sweep fires the hooks as the reference does while every
    value stays finite (docs/algorithms.md §3): a reference run that
    overflows or makes a NaN is no example."""
    def finite():
        with np.errstate(over="raise", invalid="raise"):  # inside the plan's
            return ilut(build(), drop_tol, fill)

    try:
        ref = _hooked("reference", finite, spec)
    except FloatingPointError:
        reject()
    assert _hooked("numpy", lambda: ilut(build(), drop_tol, fill), spec) == ref
