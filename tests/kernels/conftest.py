"""Kernel tests compare kernels: a cached factor would compare with itself."""

import pytest

from repro.factor import cache as factor_cache


@pytest.fixture(autouse=True)
def _no_cache():
    """Tier-equality tests must recompute, never reuse a cached factor."""
    factor_cache.configure(enabled=False)
    yield
    factor_cache.configure(enabled=True)
