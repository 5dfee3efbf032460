"""Kernel-tier dispatch policy and cross-tier factor equality.

The bit-compatibility contract (ISSUE 4, in the spirit of Dong & Cooperman):
the NumPy band tier and the scalar rowspec sweep must produce byte-identical
factors, and must match the reference tier exactly whenever no |value| ties
occur in the ILUT fill-cap selection (random data breaks all ties, so these
matrices exercise the exact-match regime).  ILU(0) has one kernel; its
tier tests pin that a forced tier never changes it.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import kernels
from repro.factor import cache as factor_cache
from repro.resilience.errors import FactorizationBreakdown
from repro.factor.ilu0 import ilu0
from repro.factor.ilut import ilut
from repro.kernels import band, rowspec
from tests.conftest import random_nonsymmetric_csr, random_spd_csr


@pytest.fixture(autouse=True)
def _no_cache():
    """Tier-equality tests must recompute, never reuse a cached factor."""
    factor_cache.configure(enabled=False)
    yield
    factor_cache.configure(enabled=True)


def _assert_factors_equal(fa, fb):
    """Bitwise identity of two ILUFactorizations (structure and values)."""
    for la, lb in ((fa.l_strict, fb.l_strict), (fa.u_upper, fb.u_upper)):
        assert np.array_equal(la.indptr, lb.indptr)
        assert np.array_equal(la.indices, lb.indices)
        assert np.array_equal(la.data, lb.data)
    assert fa.stats.floored_pivots == fb.stats.floored_pivots


def _tiers(fn):
    """Run ``fn`` under reference and numpy tiers; return both factors."""
    with kernels.forced_tier("reference"):
        f_ref = fn()
    with kernels.forced_tier("numpy"):
        f_np = fn()
    return f_ref, f_np


class TestIlu0TierEquality:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_nonsymmetric_bitwise(self, seed):
        a = random_nonsymmetric_csr(40, 0.15, seed)
        _assert_factors_equal(*_tiers(lambda: ilu0(a)))

    def test_shift_bitwise(self):
        a = random_spd_csr(30, 0.2, 3)
        _assert_factors_equal(*_tiers(lambda: ilu0(a, shift=0.01)))

    def test_floored_pivot_count_matches(self):
        # pivot of row 1 eliminates to exactly zero -> floored on every tier
        a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        f_ref, f_np = _tiers(lambda: ilu0(a))
        assert f_ref.stats.floored_pivots == 1
        _assert_factors_equal(f_ref, f_np)


class TestIlutTierEquality:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_nonsymmetric_bitwise(self, seed):
        a = random_nonsymmetric_csr(40, 0.15, seed)
        _assert_factors_equal(*_tiers(lambda: ilut(a, 1e-3, 10)))

    def test_no_dropping_large_fill(self):
        a = random_nonsymmetric_csr(25, 0.25, 4)
        _assert_factors_equal(*_tiers(lambda: ilut(a, 0.0, 25)))

    def test_tiny_fill_cap(self):
        # the fill-cap selection path; random values leave no |value| ties
        a = random_spd_csr(35, 0.3, 5)
        _assert_factors_equal(*_tiers(lambda: ilut(a, 0.0, 2)))

    def test_shift_bitwise(self):
        a = random_nonsymmetric_csr(30, 0.2, 6)
        _assert_factors_equal(*_tiers(lambda: ilut(a, 1e-4, 8, shift=0.05)))

    def test_solution_quality_identical(self):
        a = random_spd_csr(50, 0.15, 7)
        b = np.arange(1.0, 51.0)
        f_ref, f_np = _tiers(lambda: ilut(a, 1e-3, 6))
        assert np.array_equal(f_ref.solve(b), f_np.solve(b))


class TestBreakdownParityAcrossTiers:
    """breakdown_frac accounting must be preserved by the fast kernels."""

    @staticmethod
    def _degenerate(blocks=4):
        # each 2x2 block zeroes its second pivot: floored = blocks, n = 2*blocks
        blk = np.array([[1.0, 2.0], [2.0, 4.0]])
        return sp.csr_matrix(sp.block_diag([blk] * blocks, format="csr"))

    @pytest.mark.parametrize("factor", [
        lambda a, **kw: ilu0(a, **kw),
        lambda a, **kw: ilut(a, 1e-3, 4, **kw),
    ])
    def test_identical_breakdown_message(self, factor):
        a = self._degenerate()
        msgs = []
        for tier in ("reference", "numpy"):
            with kernels.forced_tier(tier):
                with pytest.raises(FactorizationBreakdown) as exc:
                    factor(a, breakdown_frac=0.25)
                msgs.append(str(exc.value))
        assert msgs[0] == msgs[1]
        assert "pivots collapsed" in msgs[0]

    def test_identical_floored_counts_below_threshold(self):
        a = self._degenerate()
        f_ref, f_np = _tiers(lambda: ilu0(a, breakdown_frac=0.75))
        assert f_ref.stats.floored_pivots == 4
        assert f_np.stats.floored_pivots == 4


class TestBandVsRowspec:
    """The scalar rowspec sweeps are the band kernels' specification."""

    def test_ilut_sweeps_bitwise(self):
        a = random_nonsymmetric_csr(30, 0.2, 8)
        n = a.shape[0]
        norms = band.row_norms2(n, a.indptr, a.data)
        args = (n, a.indptr, a.indices, a.data, 1e-3, 5, 0.0, norms)
        vec = band.ilut_factor(*args)
        scal = band.ilut_factor(*args, sweep=rowspec.ilut_sweep)
        for x, y in zip(vec, scal):
            assert np.array_equal(x, y)


class TestDispatchPolicy:
    def test_require_reference_wins_over_forced(self):
        with kernels.forced_tier("numpy"):
            assert kernels.resolve(100, 5, require_reference=True) == "reference"

    def test_auto_uses_fast_tier_when_economical(self):
        assert kernels.resolve(100, 5) == "numpy"

    def test_economy_gate_bandwidth_cap(self):
        assert kernels.band_economical(1000, kernels.BAND_BW_CAP)
        assert not kernels.band_economical(1000, kernels.BAND_BW_CAP + 1)
        assert kernels.resolve(1000, kernels.BAND_BW_CAP + 1) == "reference"

    def test_economy_gate_memory_cap(self):
        # workspace 2*(n+bw+1)*(2bw+1)*8 bytes blows the 128 MiB cap
        assert not kernels.band_economical(10**6, 100)
        assert kernels.resolve(10**6, 100) == "reference"

    def test_forced_tier_bypasses_economy_gate(self):
        # bw 200 is over the economy cap but its window is 2 MB: forcing wins
        assert kernels.resolve(400, 200) == "reference"
        with kernels.forced_tier("numpy"):
            assert kernels.resolve(400, 200) == "numpy"
            # TC1 n=101 P=2 natural ordering: bw ~ n, an 870 MB dense window;
            # the memory cap is a safety cap and forcing never overrides it
            assert kernels.resolve(5311, 5175) == "reference"

    def test_env_var_forces_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_TIER", "numpy")
        assert kernels.get_tier() == "numpy"
        assert kernels.resolve(400, 200) == "numpy"
        monkeypatch.setenv("REPRO_KERNEL_TIER", "reference")
        assert kernels.resolve(100, 5) == "reference"
        monkeypatch.setenv("REPRO_KERNEL_TIER", "auto")
        assert kernels.get_tier() is None

    @pytest.mark.parametrize("value", ["turbo", "numba"])
    def test_env_var_unknown_rejected(self, monkeypatch, value):
        # same error as set_tier: a misspelt (or retired) tier must not
        # silently mean "auto"
        monkeypatch.setenv("REPRO_KERNEL_TIER", value)
        with pytest.raises(ValueError, match="unknown kernel tier .*'numpy'"):
            kernels.get_tier()
        with pytest.raises(ValueError, match="unknown kernel tier"):
            kernels.resolve(100, 5)

    def test_set_tier_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            kernels.set_tier("gpu")

    def test_forced_tier_restores_previous_policy(self):
        kernels.set_tier(None)
        with kernels.forced_tier("reference"):
            assert kernels.get_tier() == "reference"
        assert kernels.get_tier() is None

    def test_available_tiers_shape(self):
        assert kernels.available_tiers() == ("reference", "numpy")
