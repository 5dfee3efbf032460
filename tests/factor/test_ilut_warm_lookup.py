"""A warm ILUT call pays for the cache lookup, not for the window.

The cache key names the kernel family that built the factor, and the
family of an auto or ``numpy`` call hangs on the window's footprint.  A
``"band"`` key exists only for a window within the cap, so the lookup tries
it first and only a miss computes the window; a window over the cap then
tries the ``"reference"`` key.  Every key names the factor it named before.
"""

import pytest

from repro import kernels
from repro.factor import cache as factor_cache
from repro.factor.cache import FactorCache
from repro.factor.ilut import ilut
from repro.kernels import band
from tests.conftest import random_nonsymmetric_csr

PARAMS = (1e-3, 10, 0.0)


@pytest.fixture()
def cache():
    cache = factor_cache.configure(enabled=True)
    cache.clear()
    yield cache
    cache.clear()


@pytest.fixture()
def windows(monkeypatch):
    """Every ``band.window`` call ``ilut`` makes."""
    calls = []
    window = band.window

    def counting(*args):
        calls.append(args[0])
        return window(*args)

    monkeypatch.setattr(band, "window", counting)
    return calls


def _key(a, family):
    return FactorCache.key("ilut", a, PARAMS, family)


def test_a_warm_call_computes_no_window(cache, windows):
    a = random_nonsymmetric_csr(40, 0.2, 0)
    fac = ilut(a, *PARAMS[:2])
    assert windows == [40]
    assert _key(a, "band") in cache._store
    assert ilut(a, *PARAMS[:2]) is fac
    assert windows == [40]


def test_a_forced_reference_tier_needs_no_window(cache, windows):
    a = random_nonsymmetric_csr(40, 0.2, 1)
    with kernels.forced_tier("reference"):
        fac = ilut(a, *PARAMS[:2])
        assert ilut(a, *PARAMS[:2]) is fac
    assert windows == []
    assert list(cache._store) == [_key(a, "reference")]
    # the band kernel's own factor is keyed apart, and byte-equal
    with kernels.forced_tier("numpy"):
        band_fac = ilut(a, *PARAMS[:2])
    assert band_fac is not fac
    assert band_fac.l_strict.data.tobytes() == fac.l_strict.data.tobytes()
    assert band_fac.u_upper.data.tobytes() == fac.u_upper.data.tobytes()


def test_a_window_over_the_cap_is_keyed_reference(cache, windows, monkeypatch):
    monkeypatch.setattr(kernels, "BAND_MEM_CAP", 64)
    a = random_nonsymmetric_csr(40, 0.2, 2)
    fac = ilut(a, *PARAMS[:2])
    assert list(cache._store) == [_key(a, "reference")]
    # warm: the "band" key misses, the window sends it to "reference"
    assert ilut(a, *PARAMS[:2]) is fac
    assert windows == [40, 40]
