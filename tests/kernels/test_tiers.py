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
        assert band.window(n, a.indptr, a.indices) == (n, bw, 8 * n * (2 * bw + 1))
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


class TestForcedTierBypassesTheCache:
    """A forced tier must recompute, never be served another kernel's factor."""

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
        assert (cache.hits, cache.misses, cache.bypasses, len(cache)) == (0, 0, 2, 0)
        with kernels.forced_tier("numpy"):
            assert factor(a) is not f_np


class TestDispatchPolicy:
    """One runtime route is left that the input selects: an ILUT whose best
    window is over ``BAND_MEM_CAP`` runs the reference kernel, whatever is
    forced.  Everything else takes the array kernels unless the reference
    tier is forced (MILU and live pivot plans included:
    ``test_default_path.py::TestArrayKernelSemantics``)."""

    @staticmethod
    def _window(n, bw, cap=None):
        # the diagonal plus one entry bw off it: bandwidth bw
        a = sp.csr_matrix(sp.eye(n) + sp.csr_matrix(([1.0], ([n - 1], [n - 1 - bw])), shape=(n, n)))
        return band.window(n, a.indptr, a.indices, cap)

    def test_auto_takes_the_fast_kernel_at_any_bandwidth(self):
        # no economy gate: bw ~ n (a natural-ordered subdomain block) is fine
        for n, bw in ((100, 5), (400, 200), (473, 312), (1000, 999)):
            assert self._window(n, bw, kernels.BAND_MEM_CAP)[2] <= kernels.BAND_MEM_CAP

    def test_window_is_the_smaller_of_band_and_square(self):
        assert self._window(1000, 10) == (1000, 10, 8 * 1000 * 21)
        assert self._window(400, 300) == (0, 1, 8 * 400 * 400)

    def test_over_the_cap_the_window_borders_the_band(self):
        # the whole band (2 * 5000 + 1 wide) is over the cap; the leading
        # 5000 x 5000 block is the diagonal, so the split at 5000 keeps a
        # 3-wide band plus a one-column border and one whole row
        n = 5001
        s, bw, nbytes = self._window(n, n - 1, kernels.BAND_MEM_CAP)
        assert (s, bw, nbytes) == (n - 1, 1, 8 * ((n - 1) * 4 + n))

    def test_memory_cap_is_a_safety_cap(self, monkeypatch, reference_calls):
        # a window of exactly the cap is factored on it, one byte more is not
        a = random_nonsymmetric_csr(40, 0.2, 12)
        nbytes = band.window(40, a.indptr, a.indices)[2]
        monkeypatch.setattr(kernels, "BAND_MEM_CAP", nbytes)
        f_np = ilut(a, 1e-3, 10)
        assert reference_calls["ilut"] == 0
        monkeypatch.setattr(kernels, "BAND_MEM_CAP", nbytes - 1)
        with kernels.forced_tier("numpy"):  # forcing never overrides the cap
            _assert_factors_equal(ilut(a, 1e-3, 10), f_np)
        assert reference_calls["ilut"] == 1

    def test_an_x_is_over_the_cap_and_takes_the_reference(self, reference_calls):
        # an X (diagonal + anti-diagonal): every split leaves a wide band
        # or a wide border, and the best window, 54 MB, is over the cap
        n = 3000
        i = np.arange(n)
        x = sp.csr_matrix(
            (np.r_[np.full(n, 4.0), np.ones(n)], (np.r_[i, i], np.r_[i, n - 1 - i])),
            shape=(n, n),
        )
        nbytes = band.window(n, x.indptr, x.indices, kernels.BAND_MEM_CAP)[2]
        assert nbytes == 54_012_016 > kernels.BAND_MEM_CAP
        f_auto = ilut(x, 1e-3, 10)
        assert reference_calls["ilut"] == 1
        with kernels.forced_tier("reference"):
            _assert_factors_equal(ilut(x, 1e-3, 10), f_auto)

    def test_ilu0_scratch_is_a_chunk_or_one_upper_row(self, monkeypatch):
        # an arrow pointing the wrong way: pivot 0 alone pairs (n-1)^2
        # candidates, enumerated one upper row's worth at a time at most
        n = 1000
        arrow = sp.lil_matrix((n, n))
        arrow.setdiag(4.0)
        arrow[0, :] = 1.0
        arrow[:, 0] = 1.0
        arrow = sp.csr_matrix(arrow)
        sizes = []
        enumerate_ = triples._enumerate

        def recorded(low, first_u, reps, *rest):
            sizes.append(int(reps.sum()))
            return enumerate_(low, first_u, reps, *rest)

        monkeypatch.setattr(triples, "_CHUNK", 7)
        monkeypatch.setattr(triples, "_enumerate", recorded)
        fac = ilu0(arrow)
        assert max(sizes) == n - 1 > triples._CHUNK  # one lower entry's row
        assert sum(sizes) == (n - 1) ** 2
        with kernels.forced_tier("reference"):
            _assert_factors_equal(ilu0(arrow), fac)

    def test_forced_tier_is_read_by_get_tier(self):
        with kernels.forced_tier("numpy"):
            assert kernels.get_tier() == "numpy"
        with kernels.forced_tier("reference"):
            assert kernels.get_tier() == "reference"
        with kernels.forced_tier("auto"):
            assert kernels.get_tier() is None

    @pytest.mark.parametrize("value", ["turbo", "numba"])
    def test_unknown_tier_rejected_and_policy_kept(self, value):
        # a misspelt (or retired) tier must not silently mean "auto"
        with kernels.forced_tier("reference"):
            with pytest.raises(ValueError, match="unknown kernel tier .*'numpy'"):
                with kernels.forced_tier(value):
                    pass
            assert kernels.get_tier() == "reference"

    def test_tier_check_costs_no_import_and_no_parse(self, monkeypatch):
        """Every triangular solve asks for the tier."""
        import builtins

        from repro.kernels import apply as apply_kernels

        def boom(*args, **kwargs):
            raise AssertionError("the tier check imported or parsed")

        monkeypatch.setattr(kernels, "_checked", boom)
        monkeypatch.setattr(builtins, "__import__", boom)
        assert apply_kernels.resolve_tier() == "numpy"

    def test_forced_tier_is_parsed_once_not_per_solve(self, monkeypatch):
        from repro.kernels import apply as apply_kernels

        parsed = []
        checked = kernels._checked
        monkeypatch.setattr(
            kernels, "_checked", lambda name: parsed.append(name) or checked(name)
        )
        with kernels.forced_tier("reference"):
            assert [apply_kernels.resolve_tier() for _ in range(3)] == ["reference"] * 3
        assert parsed == ["reference"]
        assert apply_kernels.resolve_tier() == "numpy"

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
