"""Kernel-tier dispatch policy and cross-tier factor equality.

The bit-compatibility contract (ISSUE 4, in the spirit of Dong & Cooperman):
the array kernels (the window ILUT sweep, the update-triple ILU(0) sweep)
must produce factors byte-identical to the reference kernels — same
patterns, same bits, same floored-pivot count — |value| ties in the ILUT
fill-cap selection included: every kernel sorts on ``(-|v|, column)``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import kernels
from repro.factor import cache as factor_cache
from repro.resilience.errors import FactorizationBreakdown
from repro.factor.ilu0 import ilu0
from repro.factor.ilut import ilut
from repro.kernels import band, triples
from tests.conftest import random_nonsymmetric_csr, random_spd_csr


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

    @pytest.mark.parametrize("bw,fill", [(1, 3), (3, 2), (6, 10)])
    def test_band_window_layout(self, bw, fill):
        # 2*bw + 1 < n: the window is the band, not the square
        n = 80
        rng = np.random.default_rng(bw)
        a = sp.diags(
            [rng.standard_normal(n - abs(d)) for d in range(-bw, bw + 1)],
            list(range(-bw, bw + 1)), format="csr",
        ) + sp.diags(np.full(n, 3.0))
        a = sp.csr_matrix(a)
        assert band.window_bytes(n, bw) == 8 * n * (2 * bw + 1)
        _assert_factors_equal(*_tiers(lambda: ilut(a, 1e-3, fill, shift=0.1)))

    def test_floored_pivots_share_one_row_norm(self):
        # the pivot floor is ±1e-12·‖row‖: a segmented sum and BLAS dot
        # differ in the norm's last bit on rows of >= 3 general values, which
        # used to put the two tiers' floored pivots (and U) one ulp apart
        rng = np.random.default_rng(5)
        a = sp.random(34, 34, 0.2, random_state=rng, format="lil")
        a.setdiag(np.where(np.arange(34) % 3 == 0, 0.0, rng.standard_normal(34)))
        a = sp.csr_matrix(a)
        f_ref, f_np = _tiers(lambda: ilut(a, 1e-3, 10))
        assert f_ref.stats.floored_pivots == 7
        _assert_factors_equal(f_ref, f_np)
        b = np.arange(1.0, 35.0)
        assert np.array_equal(f_ref.solve(b), f_np.solve(b))

    def test_row_norm_is_the_reference_expression(self):
        a = random_nonsymmetric_csr(40, 0.3, 9)
        norms = band.row_norms2(40, a.indptr, a.data)
        for i in range(40):
            v = a.data[a.indptr[i]:a.indptr[i + 1]]
            assert norms[i] == float(np.sqrt(np.dot(v, v)))

    @pytest.mark.parametrize("fill", [1, 2, 3])
    def test_magnitude_ties_keep_the_smaller_column(self, fill):
        # integer values: every row is full of |value| ties and exact
        # cancellations, and the cap must pick the same survivors
        rng = np.random.default_rng(3)
        dense = rng.integers(-2, 3, size=(30, 30)).astype(float)
        dense[rng.random((30, 30)) < 0.6] = 0.0
        np.fill_diagonal(dense, 4.0)
        a = sp.csr_matrix(dense)
        f_ref, f_np = _tiers(lambda: ilut(a, 0.0, fill))
        _assert_factors_equal(f_ref, f_np)
        assert np.diff(f_np.u_upper.indptr).max() == fill + 1


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


class TestCacheKeyedByKernel:
    """A forced tier must recompute, never be served the other tier's factor."""

    @pytest.mark.parametrize("factor", [
        lambda a: ilu0(a),
        lambda a: ilut(a, 1e-3, 5),
    ])
    def test_tiers_do_not_share_cache_entries(self, factor):
        a = random_nonsymmetric_csr(25, 0.2, 11)
        cache = factor_cache.configure(enabled=True)
        cache.clear()
        cache.reset_stats()
        f_ref, f_np = _tiers(lambda: factor(a))
        assert f_np is not f_ref
        assert (cache.hits, cache.misses) == (0, 2)
        with kernels.forced_tier("numpy"):
            assert factor(a) is f_np


class TestDispatchPolicy:
    def test_require_reference_wins_over_forced(self):
        with kernels.forced_tier("numpy"):
            assert kernels.resolve(1000, require_reference=True) == "reference"

    def test_auto_takes_the_fast_kernel_at_any_bandwidth(self):
        # no economy gate: bw ~ n (a natural-ordered subdomain block) is fine
        for n, bw in ((100, 5), (400, 200), (473, 312), (1000, 999)):
            assert kernels.resolve(band.window_bytes(n, bw)) == "numpy"

    def test_window_is_the_smaller_of_band_and_square(self):
        assert band.window_bytes(1000, 10) == 8 * 1000 * 21
        assert band.window_bytes(400, 300) == 8 * 400 * 400

    def test_memory_cap_is_a_safety_cap(self):
        assert kernels.resolve(kernels.BAND_MEM_CAP) == "numpy"
        assert kernels.resolve(kernels.BAND_MEM_CAP + 1) == "reference"
        # TC1 n=101 P=2 natural ordering: bw ~ n, a 225 MB square window;
        # forcing never overrides the cap
        with kernels.forced_tier("numpy"):
            assert kernels.resolve(band.window_bytes(5311, 5175)) == "reference"
            assert kernels.resolve(band.window_bytes(10**6, 100)) == "reference"

    def test_ilu0_workspace_is_a_chunk_or_the_busiest_pivot(self):
        # tridiagonal: one candidate triple per pivot, so a chunk's worth
        a = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(50, 50), format="csr")
        assert triples.workspace_bytes(50, a.indptr, a.indices) == 40 * triples._CHUNK
        # an arrow pointing the wrong way: pivot 0 alone has (n-1)^2 candidates
        n = 4000
        arrow = sp.lil_matrix((n, n))
        arrow.setdiag(4.0)
        arrow[0, :] = 1.0
        arrow[:, 0] = 1.0
        arrow = sp.csr_matrix(arrow)
        nbytes = triples.workspace_bytes(n, arrow.indptr, arrow.indices)
        assert nbytes == 40 * (n - 1) ** 2
        assert kernels.resolve(nbytes) == "reference"
        assert triples.workspace_bytes(0, np.zeros(1, dtype=int), np.zeros(0, dtype=int)) == 40 * triples._CHUNK

    def test_env_var_forces_tier(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_TIER", "numpy")
        assert kernels.get_tier() == "numpy"
        assert kernels.resolve(1000) == "numpy"
        monkeypatch.setenv("REPRO_KERNEL_TIER", "reference")
        assert kernels.resolve(1000) == "reference"
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
            kernels.resolve(1000, require_reference=True)

    def test_unset_env_var_costs_a_lookup_not_an_import_or_a_parse(self, monkeypatch):
        """Every triangular solve asks for the tier."""
        import builtins

        from repro.kernels import apply as apply_kernels

        def boom(*args, **kwargs):
            raise AssertionError("the tier check imported or parsed")

        monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
        monkeypatch.setattr(kernels, "_checked", boom)
        monkeypatch.setattr(builtins, "__import__", boom)
        assert apply_kernels.resolve_tier() == "numpy"

    def test_env_var_is_parsed_once_per_value_and_changes_are_honoured(self, monkeypatch):
        from repro.kernels import apply as apply_kernels

        parsed = []
        checked = kernels._checked
        monkeypatch.setattr(
            kernels, "_checked", lambda name: parsed.append(name) or checked(name)
        )
        monkeypatch.setenv("REPRO_KERNEL_TIER", " Reference ")
        assert [apply_kernels.resolve_tier() for _ in range(3)] == ["reference"] * 3
        assert parsed == ["reference"]
        monkeypatch.setenv("REPRO_KERNEL_TIER", "numpy")
        assert apply_kernels.resolve_tier() == "numpy"
        monkeypatch.setenv("REPRO_KERNEL_TIER", "reference")
        assert apply_kernels.resolve_tier() == "reference"
        assert parsed == ["reference", "numpy", "reference"]
        monkeypatch.delenv("REPRO_KERNEL_TIER")
        assert kernels.get_tier() is None

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
