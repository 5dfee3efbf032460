"""The one factor codec of the wire: ``ILUFactorization.to_wire`` /
``from_wire`` and the permutation round trip ``solve_permuted``."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.comm.backends import worker
from repro.factor.base import ILUFactorization, solve_permuted
from repro.factor.ilu0 import ilu0
from repro.factor.ilut import ilut
from tests.conftest import random_nonsymmetric_csr


def _over_the_wire(meta, arrays):
    """Through the real command encoding: JSON meta + raw array blocks."""
    payload = worker.pack_command(worker.OP_LOAD_FACTOR, meta, arrays)
    _, meta, arrays = worker.unpack_command(payload)
    return meta, arrays


def _matrix(n: int) -> sp.csr_matrix:
    if n <= 1:
        return sp.csr_matrix(np.full((n, n), 3.0))
    return random_nonsymmetric_csr(n, 0.3, seed=n)


@pytest.mark.parametrize("n", [0, 1, 2, 17])
@pytest.mark.parametrize("with_perm", [False, True])
@pytest.mark.parametrize("factor", [
    lambda a: ilu0(a, shift=0.25), lambda a: ilut(a, 1e-3, 5),
])
def test_round_trip_is_bitwise(n, with_perm, factor):
    fac = factor(_matrix(n))
    perm = np.random.default_rng(n).permutation(n) if with_perm else None
    meta, arrays = fac.to_wire("some-key", perm)
    assert meta["key"] == "some-key" and meta["has_perm"] is with_perm
    assert len(arrays) == (7 if with_perm else 6)

    got, got_perm = ILUFactorization.from_wire(*_over_the_wire(meta, arrays))
    for a, b in ((got.l_strict, fac.l_strict), (got.u_upper, fac.u_upper)):
        assert a.shape == b.shape == (n, n)
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert x.flags.writeable  # a copy, not a view of the frame
    assert got.stats == fac.stats
    if with_perm:
        assert got_perm.dtype == np.int64 and got_perm.tolist() == perm.tolist()
    else:
        assert got_perm is None
    b = np.linspace(-1.0, 2.0, n)
    assert solve_permuted(got, got_perm, b).tobytes() == \
        solve_permuted(fac, perm, b).tobytes()


def test_optional_meta_defaults():
    # hand-written metas (the protocol unit tests) may leave these out
    fac = ilu0(_matrix(5))
    meta, arrays = fac.to_wire("k")
    slim = {"key": "k", "n": 5}
    got, perm = ILUFactorization.from_wire(slim, arrays)
    assert perm is None
    assert (got.stats.floored_pivots, got.stats.shift) == (0, 0.0)


def test_solve_permuted_is_the_rcm_round_trip():
    n = 12
    a = _matrix(n)
    perm = np.random.default_rng(3).permutation(n)
    fac = ilu0(a[perm][:, perm].tocsr())
    b = np.cos(np.arange(n, dtype=np.float64))
    want = np.empty(n)
    want[perm] = fac.solve(b[perm])
    assert solve_permuted(fac, perm, b).tobytes() == want.tobytes()
    assert solve_permuted(fac, None, b).tobytes() == fac.solve(b).tobytes()
