"""Kernel tests compare kernels: a cached factor would compare with itself."""

import sys

import pytest

from repro.factor import cache as factor_cache


@pytest.fixture(autouse=True)
def _no_cache():
    """Tier-equality tests must recompute, never reuse a cached factor."""
    factor_cache.configure(enabled=False)
    yield
    factor_cache.configure(enabled=True)


@pytest.fixture
def reference_calls(monkeypatch):
    """Count calls into the two reference kernels."""
    calls = {"ilut": 0, "ilu0": 0}
    for alg in calls:
        # the package re-exports the functions under the submodules' names
        mod = sys.modules[f"repro.factor.{alg}"]
        real = getattr(mod, f"{alg}_reference")

        def counted(*args, _alg=alg, _real=real):
            calls[_alg] += 1
            return _real(*args)

        monkeypatch.setattr(mod, f"{alg}_reference", counted)
    return calls
