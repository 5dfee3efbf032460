"""``vector_norm`` is ``np.linalg.norm`` to the bit on every real 1-D vector."""

import numpy as np
import pytest

from repro.krylov.ops import CountingOps, SerialOps, vector_norm


def _vectors():
    rng = np.random.default_rng(7)
    yield np.zeros(0)
    yield np.zeros(5)
    for scale in (1e-200, 1e-160, 1e-30, 1.0, 1e30, 1e160, 1e200):
        for n in (1, 2, 17, 180, 1001):
            base = scale * rng.standard_normal(4 * n)
            yield base[:n]              # contiguous
            yield base[::3][:n]         # strided
            yield base[::-1][:n]        # negative stride
    yield np.array([np.finfo(float).max, 1.0])
    yield np.array([np.finfo(float).tiny, 5e-324])


def _bits(value):
    return np.float64(value).view(np.int64)


@np.errstate(over="ignore")  # squares past 1e154 overflow on both sides
def test_vector_norm_is_numpys_norm_bitwise():
    for x in _vectors():
        assert _bits(vector_norm(x)) == _bits(np.linalg.norm(x)), x


@pytest.mark.parametrize("ops", [SerialOps(), CountingOps(4)])
@np.errstate(over="ignore")
def test_ops_norm_is_numpys_norm_bitwise(ops):
    for x in _vectors():
        assert _bits(ops.norm(x)) == _bits(np.linalg.norm(x))
        assert isinstance(ops.norm(x), float)
