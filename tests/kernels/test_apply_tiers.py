"""Tier-equivalence of the apply kernels — bitwise.

The contract (docs/performance.md, "Apply phase"): both tiers of the
triangular sweeps, the fused ILU apply and the CSR matvec produce
bit-identical output, and a process whose compiled sweep cannot be trusted
runs the spec loops.  These tests compare raw arrays with
``np.array_equal`` or as bytes — no tolerances anywhere.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels, obs
from repro.factor.ilu0 import ilu0
from repro.factor.ilut import ilut
from repro.kernels import apply as apply_kernels
from repro.kernels import applyspec
from repro.sparse.triangular import TriangularFactor
from repro.utils.validation import ensure_csr


def _test_matrix(n=300, seed=7):
    rng = np.random.default_rng(seed)
    a = sp.diags(
        [np.full(n - 1, -1.0), 4.0 + rng.random(n), np.full(n - 1, -1.3)],
        [-1, 0, 1], format="csr",
    )
    return sp.csr_matrix(a + sp.random(n, n, 0.02, random_state=seed))


def _assert_tiers_bitwise(fac, b):
    """fac.solve(b) is bit-identical under reference, numpy and auto."""
    with kernels.forced_tier("reference"):
        ref = fac.solve(b)
    for tier in ("numpy", None):
        with kernels.forced_tier(tier):
            assert np.array_equal(fac.solve(b), ref), f"{tier} differs from reference"


class TestTriangularTierEquivalence:
    @pytest.mark.parametrize("factorizer", [ilu0, lambda a: ilut(a, 1e-4, 15)])
    def test_fused_ilu_solve_bitwise_across_tiers(self, factorizer, rng):
        a = _test_matrix()
        fac = factorizer(a)
        _assert_tiers_bitwise(fac, rng.standard_normal(a.shape[0]))
        assert bool(fac.sweeps._slots) is apply_kernels.gstrs_trusted()

    def test_solo_sweeps_bitwise_across_tiers(self, rng):
        a = _test_matrix(seed=11)
        fac = ilut(a, 1e-4, 15)
        b = rng.standard_normal(a.shape[0])
        for tri in (fac.L, fac.U):
            _assert_tiers_bitwise(tri, b)

    def test_fused_equals_composed_sweeps(self, rng):
        fac = ilut(_test_matrix(seed=3), 1e-4, 15)
        b = rng.standard_normal(fac.n)
        assert np.array_equal(fac.solve(b), fac.U.solve(fac.L.solve(b)))

    def test_solve_does_not_mutate_rhs(self, rng):
        fac = ilu0(_test_matrix(seed=5))
        b = rng.standard_normal(fac.n)
        b0 = b.copy()
        for tier in ("reference", "numpy"):
            with kernels.forced_tier(tier):
                fac.solve(b)
                fac.L.solve(b)
                fac.U.solve(b)
        assert np.array_equal(b, b0)


class TestMatvecTiers:
    def test_matvec_bitwise_across_tiers(self, rng):
        a = _test_matrix(seed=17)
        x = rng.standard_normal(a.shape[0])
        with kernels.forced_tier("reference"):
            ref = apply_kernels.csr_matvec(a, x)
        with kernels.forced_tier("numpy"):
            assert np.array_equal(apply_kernels.csr_matvec(a, x), ref)

    def test_matvec_matches_scipy(self, rng):
        a = _test_matrix(seed=19)
        x = rng.standard_normal(a.shape[0])
        with kernels.forced_tier("reference"):
            assert np.array_equal(apply_kernels.csr_matvec(a, x), a @ x)

    def test_spec_matvec_empty_rows(self):
        a = sp.csr_matrix((4, 4))
        y = np.empty(4)
        applyspec.csr_matvec(a.indptr, a.indices, a.data, np.ones(4), y)
        assert np.array_equal(y, np.zeros(4))


class TestCompiledMatvec:
    """The raw routine is ``A @ x`` minus the dispatch, or it is ``A @ x``."""

    def test_is_the_routine_scipy_ends_in(self, rng, monkeypatch):
        a = _test_matrix(seed=41)
        x = rng.standard_normal(a.shape[0])
        calls = []
        real = apply_kernels._sparsetools()

        class Spy:
            def csr_matvec(self, *args):
                calls.append(args[:2])
                return real.csr_matvec(*args)

        monkeypatch.setattr(apply_kernels, "_sparsetools", lambda: Spy())
        assert np.array_equal(apply_kernels.compiled_matvec(a, x), a @ x)
        assert calls == [a.shape]

    @pytest.mark.parametrize("make_x", [
        pytest.param(lambda n: np.ones(n, dtype=np.float32), id="float32"),
        pytest.param(lambda n: np.ones((n, 2)), id="2-D"),
        pytest.param(lambda n: np.ones(n, dtype=np.int64), id="integers"),
        pytest.param(lambda n: [1.0] * n, id="list"),
    ])
    def test_anything_else_takes_the_operator(self, monkeypatch, make_x):
        class Untouchable:
            def csr_matvec(self, *args):
                raise AssertionError("raw routine called on input it cannot take")

        monkeypatch.setattr(apply_kernels, "_sparsetools", lambda: Untouchable())
        a = _test_matrix(n=20, seed=43)
        x = make_x(20)
        got = apply_kernels.compiled_matvec(a, x)
        assert got.dtype == (a @ x).dtype and np.array_equal(got, a @ x)

    def test_other_formats_and_a_moved_module_take_the_operator(self, rng, monkeypatch):
        a = _test_matrix(n=20, seed=47)
        x = rng.standard_normal(20)
        assert np.array_equal(apply_kernels.compiled_matvec(a.tocsc(), x), a @ x)
        monkeypatch.setattr(apply_kernels, "_sparsetools", lambda: None)
        assert np.array_equal(apply_kernels.compiled_matvec(a, x), a @ x)

    def test_wrong_length_is_scipys_error_not_an_overrun(self):
        a = _test_matrix(n=20, seed=53)
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_kernels.compiled_matvec(a, np.ones(19))

    def test_empty_shapes(self):
        for shape in [(0, 0), (3, 0), (0, 3)]:
            y = apply_kernels.compiled_matvec(sp.csr_matrix(shape), np.ones(shape[1]))
            assert y.shape == (shape[0],) and not y.any()


def _canonical_blocks(rng, shapes):
    return [
        ensure_csr(sp.random(m, n, 0.4, random_state=int(rng.integers(2**31)), format="csr"))
        for m, n in shapes
    ]


class TestStackCsr:
    @pytest.mark.parametrize("shapes", [
        pytest.param([(4, 4), (6, 6), (1, 1)], id="square"),
        pytest.param([(3, 5), (4, 2)], id="rectangular"),
        pytest.param([(3, 3), (0, 0), (2, 2)], id="empty block"),
        pytest.param([(0, 4), (3, 0), (2, 2)], id="no rows, no columns"),
        pytest.param([(5, 5)], id="one block"),
    ])
    def test_equals_block_diag(self, rng, shapes):
        blocks = _canonical_blocks(rng, shapes)
        got = apply_kernels.stack_csr(blocks)
        want = ensure_csr(sp.block_diag(blocks).tocsr())
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and np.array_equal(g, w), name

    def test_no_blocks(self):
        got = apply_kernels.stack_csr([])
        assert got.shape == (0, 0) and got.nnz == 0

    def test_rows_keep_their_storage_order_and_explicit_zeros(self):
        # unsorted columns and a stored zero: a canonicalising stack would
        # change the order a product accumulates a row in
        a = sp.csr_matrix(
            (np.array([1.0, 0.0, -2.0]), np.array([2, 0, 1]), np.array([0, 3])), shape=(1, 3)
        )
        got = apply_kernels.stack_csr([a, a])
        assert got.indices.tolist() == [2, 0, 1, 5, 3, 4]
        assert got.data.tolist() == [1.0, 0.0, -2.0, 1.0, 0.0, -2.0]

    def test_product_is_the_per_block_products(self, rng):
        blocks = _canonical_blocks(rng, [(4, 3), (0, 2), (5, 5)])
        xs = [rng.standard_normal(b.shape[1]) for b in blocks]
        got = apply_kernels.csr_matvec(apply_kernels.stack_csr(blocks), np.concatenate(xs))
        assert np.array_equal(got, np.concatenate([b @ x for b, x in zip(blocks, xs)]))


class _FlippedGstrs:
    """scipy's ``_superlu`` with one bit of every gstrs result flipped."""

    def __init__(self):
        self.real = apply_kernels._superlu()
        self.calls = 0

    def gstrs(self, *args):
        self.calls += 1
        x, info = self.real.gstrs(*args)
        x[0] = np.nextafter(x[0], np.inf)
        return x, info


def _mismatch_events(tracer):
    return [
        e["attrs"] for span in tracer.spans for e in span.events
        if e["name"] == "apply.gstrs_mismatch"
    ]


@pytest.fixture()
def unchecked(monkeypatch):
    """This process's gstrs verdict forgotten for the test, restored after."""
    monkeypatch.setattr(apply_kernels, "_trusted", None)


class TestProbeVerification:
    """gstrs is trusted by argument plus one battery per process
    (docs/algorithms.md, "Why gstrs is the spec"), not probed per factor."""

    def test_probe_runs_once_and_accepts(self, rng, monkeypatch, unchecked):
        """The battery runs at the first numpy-tier sweep of the process and
        never again; after it every solve of every factor is one gstrs call
        and no interpreted pass."""
        checks = []
        battery = apply_kernels._battery_mismatch
        monkeypatch.setattr(
            apply_kernels, "_battery_mismatch", lambda: checks.append(1) or battery()
        )
        facs = [ilut(_test_matrix(seed=seed), 1e-4, 15) for seed in (23, 24)]
        b = rng.standard_normal(facs[0].n)
        with kernels.forced_tier("reference"):
            refs = [fac.solve(b) for fac in facs]
        assert checks == []
        with kernels.forced_tier("numpy"):
            facs[0].solve(b)
            assert checks == [1]
            calls, passes = [], []
            gstrs, forward = apply_kernels.gstrs_sweeps, applyspec.forward_unit
            monkeypatch.setattr(
                apply_kernels, "gstrs_sweeps", lambda *a: calls.append(1) or gstrs(*a)
            )
            monkeypatch.setattr(
                applyspec, "forward_unit", lambda *a: passes.append(1) or forward(*a)
            )
            xs = [fac.solve(b) for fac in facs for _ in range(2)]
        assert checks == [1] and apply_kernels.gstrs_trusted() is True
        assert len(calls) == 4 and passes == []
        assert [x.tobytes() for x in xs] == [r.tobytes() for r in refs for _ in range(2)]

    @pytest.mark.parametrize("pick", [
        pytest.param(lambda fac: fac, id="fused"),
        pytest.param(lambda fac: fac.L, id="L"),
        pytest.param(lambda fac: fac.U, id="U"),
    ])
    def test_probe_mismatch_falls_back(self, rng, monkeypatch, unchecked, pick):
        """A gstrs that differs from the spec on the battery is not trusted
        for anything: whichever sweep runs first, the process emits one
        event naming the shape, and every sweep — the fused one and both
        solo ones, on any factor — returns the spec's bits with no further
        gstrs call."""
        flipped = _FlippedGstrs()
        monkeypatch.setattr(apply_kernels, "_superlu", lambda: flipped)
        fac = ilut(_test_matrix(seed=29), 1e-4, 15)
        other = ilu0(_test_matrix(seed=30))
        sweeps = [pick(fac), fac, fac.L, fac.U, other]
        b = rng.standard_normal(fac.n)
        with kernels.forced_tier("reference"):
            refs = [f.solve(b) for f in sweeps]
        with obs.tracing() as tracer, tracer.span("apply"):
            with kernels.forced_tier("numpy"):
                xs = [f.solve(b) for f in sweeps for _ in range(2)]
        assert [x.tobytes() for x in xs] == [r.tobytes() for r in refs for _ in range(2)]
        assert flipped.calls == 1  # the battery's first comparison
        assert _mismatch_events(tracer) == [{"shape": "signed zeros", "sweeps": "lower+upper"}]
        assert all(f.sweeps._slots is None for f in sweeps)

    def test_missing_superlu_runs_the_spec_silently(self, rng, monkeypatch, unchecked):
        monkeypatch.setattr(apply_kernels, "_superlu", lambda: None)
        fac = ilut(_test_matrix(seed=31), 1e-4, 15)
        b = rng.standard_normal(fac.n)
        with kernels.forced_tier("reference"):
            refs = [f.solve(b) for f in (fac, fac.L, fac.U)]
        with obs.tracing() as tracer, tracer.span("apply"):
            with kernels.forced_tier("numpy"):
                got = [f.solve(b) for f in (fac, fac.L, fac.U)]
        assert all(np.array_equal(x, r) for x, r in zip(got, refs))
        assert fac.sweeps._slots is None
        assert _mismatch_events(tracer) == []
        assert apply_kernels._trusted is None  # nothing was checked

    def test_intc_overflow_runs_the_spec(self, rng, monkeypatch):
        assert apply_kernels.gstrs_trusted()
        monkeypatch.setattr(apply_kernels, "_INTC_MAX", 10)
        fac = ilut(_test_matrix(seed=37), 1e-4, 15)
        b = rng.standard_normal(fac.n)
        with kernels.forced_tier("reference"):
            ref = fac.solve(b)
        with kernels.forced_tier("numpy"):
            assert np.array_equal(fac.solve(b), ref)
        assert fac.sweeps._slots == ()

    def test_the_battery_sees_a_dropped_stored_zero(self, monkeypatch):
        """The slot builder before the check summed ``I + L`` and so dropped
        L's stored zeros; the spec subtracts their products, and one decides
        a sign (``-0.0 - 0.0 * -1.0`` is ``+0.0``).  The battery names it."""
        def summed(n, tri, unit):
            if not unit:
                return slot(n, tri, unit)
            m = sp.csc_matrix(sp.eye(n) + (sp.csc_matrix((n, n)) if tri is None else tri))
            m.sort_indices()
            return m.nnz, m.data, m.indices.astype(np.intc), m.indptr.astype(np.intc)

        slot = apply_kernels._slot
        assert apply_kernels._battery_mismatch() is None
        monkeypatch.setattr(apply_kernels, "_slot", summed)
        assert apply_kernels._battery_mismatch() == ("signed zeros", "lower+upper")


@st.composite
def _unit_triangles(draw):
    """A strict triangle pair with stored zeros, signed zeros and
    subnormals among its values, and a right-hand side salted the same way."""
    n = draw(st.integers(min_value=0, max_value=60))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    special = np.array([0.0, -0.0, 5e-324, -3e-310, 1e300])

    def salted(shape):
        v = rng.standard_normal(shape)
        pick = rng.random(shape) < 0.2
        v[pick] = rng.choice(special, int(pick.sum()))
        return v

    def stored(mask):  # every kept entry stored, zeros included
        indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
        return sp.csr_matrix((values[mask], np.nonzero(mask)[1], indptr), shape=(n, n))

    values, keep = salted((n, n)), rng.random((n, n)) < density
    return n, stored(np.tril(keep, -1)), stored(np.triu(keep, 1)), salted(n)


@given(_unit_triangles(), st.sampled_from(["lower+upper", "lower", "upper"]))
@settings(max_examples=80, deadline=None)
def test_gstrs_is_the_spec_byte_for_byte(system, sweeps):
    """One gstrs call reproduces the interpreted spec's bytes on random unit
    triangles, dense ones included (the argument of docs/algorithms.md)."""
    n, lower, upper, b = system
    low = None if sweeps == "upper" else lower
    upp = None if sweeps == "lower" else upper
    slots = apply_kernels._gstrs_slots(n, low, upp)
    got = apply_kernels.gstrs_sweeps(n, slots[0], slots[1], b)
    with np.errstate(over="ignore", invalid="ignore"):  # 1e300 overflows, inf - inf
        want = apply_kernels.UnitSweeps(n, low, upp).spec(b)
    assert got.tobytes() == want.tobytes()


def _chain(n, rng):
    return sp.csr_matrix(sp.diags([rng.random(n - 1) + 0.5], [-1], format="csr"))


def _two_chains(n):
    rows = np.arange(1, n, 2)
    return sp.coo_matrix(
        (np.full(len(rows), 0.5), (rows, rows - 1)), shape=(n, n)
    ).tocsr()


class TestEdgeShapes:
    """Degenerate triangles through both tiers: empty, singleton, rows with
    no strict entries, a fully sequential chain, independent 2-chains."""

    @pytest.mark.parametrize("strict,lower", [
        pytest.param(lambda rng: sp.csr_matrix((0, 0)), True, id="empty"),
        pytest.param(lambda rng: sp.csr_matrix((1, 1)), True, id="singleton"),
        pytest.param(lambda rng: sp.csr_matrix((7, 7)), False, id="diagonal-only"),
        pytest.param(lambda rng: _two_chains(100), True, id="two-chains-lower"),
        pytest.param(lambda rng: _two_chains(100).T, False, id="two-chains-upper"),
        pytest.param(lambda rng: _chain(60, rng), True, id="chain-lower"),
        pytest.param(lambda rng: _chain(60, rng).T, False, id="chain-upper"),
    ])
    @pytest.mark.parametrize("unit_diag", [True, False])
    def test_bitwise_across_tiers(self, strict, lower, unit_diag, rng):
        s = sp.csr_matrix(strict(rng))
        diag = None if unit_diag else 1.0 + rng.random(s.shape[0])
        t = TriangularFactor(s, diag, lower=lower)
        _assert_tiers_bitwise(t, rng.standard_normal(t.n))

    def test_singleton_value(self):
        t = TriangularFactor(sp.csr_matrix((1, 1)), np.array([2.0]), lower=False)
        for tier in ("reference", "numpy"):
            with kernels.forced_tier(tier):
                assert np.array_equal(t.solve(np.array([3.0])), np.array([1.5]))
