"""A warm ILUT call pays for the cache lookup, not for the window.

Every kernel computes the same bytes, so the cache key names none: a call
looks up one key, and only a miss computes the window that picks the
kernel.  A window over the cap sends the miss to the reference kernel, the
one route the input selects, and its factor is stored under the same key.
A forced tier bypasses the cache, and a forced ``"reference"`` tier needs
no window.
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
    cache.reset_stats()
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


def _key(a):
    return FactorCache.key("ilut", a, PARAMS)


def test_a_warm_call_computes_no_window(cache, windows):
    a = random_nonsymmetric_csr(40, 0.2, 0)
    fac = ilut(a, *PARAMS[:2])
    assert windows == [40]
    assert list(cache._store) == [_key(a)]
    assert ilut(a, *PARAMS[:2]) is fac
    assert windows == [40]


def test_a_forced_reference_tier_needs_no_window(cache, windows):
    a = random_nonsymmetric_csr(40, 0.2, 1)
    with kernels.forced_tier("reference"):
        fac = ilut(a, *PARAMS[:2])
        assert ilut(a, *PARAMS[:2]) is not fac
    assert windows == []
    assert len(cache) == 0 and cache.bypasses == 2
    # the band kernel's factor is byte-equal
    band_fac = ilut(a, *PARAMS[:2])
    assert band_fac.l_strict.data.tobytes() == fac.l_strict.data.tobytes()
    assert band_fac.u_upper.data.tobytes() == fac.u_upper.data.tobytes()


def test_a_warm_call_over_the_cap_is_one_hit_and_no_window(cache, windows, monkeypatch):
    monkeypatch.setattr(kernels, "BAND_MEM_CAP", 64)
    a = random_nonsymmetric_csr(40, 0.2, 2)
    fac = ilut(a, *PARAMS[:2])
    assert list(cache._store) == [_key(a)]
    assert (cache.misses, cache.hits) == (1, 0)
    assert ilut(a, *PARAMS[:2]) is fac
    assert (cache.misses, cache.hits) == (1, 1)
    assert windows == [40]
