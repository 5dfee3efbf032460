"""The content-addressed factor cache: keying, invalidation, bypass, LRU."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import faults, kernels, obs
from repro.factor import cache as factor_cache
from repro.resilience.errors import FactorizationBreakdown
from repro.factor.cache import FactorCache
from repro.factor.ilu0 import ilu0
from repro.factor.ilut import ilut
from tests.conftest import random_nonsymmetric_csr, random_spd_csr


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts from an empty, enabled cache with zeroed counters."""
    cache = factor_cache.configure(enabled=True)
    cache.clear()
    cache.reset_stats()
    yield cache
    cache.clear()
    cache.reset_stats()


class TestHits:
    def test_repeat_ilut_returns_cached_object(self, fresh_cache):
        a = random_nonsymmetric_csr(30, 0.2, 0)
        f1 = ilut(a, 1e-3, 10)
        f2 = ilut(a, 1e-3, 10)
        assert f2 is f1
        assert fresh_cache.stats()["misses"] == 1
        assert fresh_cache.stats()["hits"] == 1

    def test_repeat_ilu0_returns_cached_object(self, fresh_cache):
        a = random_spd_csr(30, 0.2, 1)
        assert ilu0(a) is ilu0(a)
        assert fresh_cache.stats() | {"hits": 1, "misses": 1} == fresh_cache.stats()

    def test_equal_content_different_object_hits(self, fresh_cache):
        # content addressing: a byte-identical copy is the same key
        a = random_nonsymmetric_csr(25, 0.2, 2)
        b = a.copy()
        assert ilut(a, 1e-3, 5) is ilut(b, 1e-3, 5)

    def test_ilu0_and_ilut_do_not_collide(self, fresh_cache):
        a = random_spd_csr(20, 0.3, 3)
        ilu0(a)
        ilut(a, 1e-3, 10)
        assert fresh_cache.stats()["misses"] == 2
        assert fresh_cache.stats()["hits"] == 0


class TestInvalidation:
    def test_value_change_misses(self, fresh_cache):
        a = random_nonsymmetric_csr(30, 0.2, 4)
        f1 = ilut(a, 1e-3, 10)
        b = a.copy()
        b.data = b.data.copy()
        b.data[0] *= 1.0 + 1e-12  # one ULP-scale nudge in one entry
        f2 = ilut(b, 1e-3, 10)
        assert f2 is not f1
        assert fresh_cache.stats()["misses"] == 2

    def test_structure_change_misses(self, fresh_cache):
        # same shape, identical values everywhere, one extra stored zero in
        # row 0 — numerically the same operator, structurally a new key
        a = random_spd_csr(20, 0.25, 5)
        extra = int(np.setdiff1d(np.arange(20), a.indices[: a.indptr[1]])[-1])
        coo = a.tocoo()
        b = sp.csr_matrix(
            (
                np.append(coo.data, 0.0),
                (np.append(coo.row, 0), np.append(coo.col, extra)),
            ),
            shape=a.shape,
        )
        assert b.nnz == a.nnz + 1  # the zero is stored, not pruned
        f1 = ilu0(a)
        f2 = ilu0(b)
        assert f2 is not f1
        assert fresh_cache.stats()["misses"] == 2

    @pytest.mark.parametrize("params", [
        dict(drop_tol=1e-4, fill=10),
        dict(drop_tol=1e-3, fill=11),
        dict(drop_tol=1e-3, fill=10, shift=0.01),
    ])
    def test_param_change_misses(self, fresh_cache, params):
        a = random_nonsymmetric_csr(25, 0.2, 6)
        f1 = ilut(a, 1e-3, 10)
        f2 = ilut(a, params.pop("drop_tol"), params.pop("fill"), **params)
        assert f2 is not f1
        assert fresh_cache.stats()["misses"] == 2
        assert fresh_cache.stats()["hits"] == 0

    def test_milu_and_ilu0_distinct(self, fresh_cache):
        a = random_spd_csr(25, 0.25, 7)
        f1 = ilu0(a)
        f2 = ilu0(a, modified=True)
        assert f2 is not f1
        assert fresh_cache.stats()["misses"] == 2


class TestBreakdownRecheckOnHit:
    def test_hit_reruns_breakdown_detector(self, fresh_cache):
        # pivot of row 1 floors; a hit under a tighter breakdown_frac must
        # fail exactly like a recomputation would
        a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        fac = ilu0(a)  # no threshold: cached with floored_pivots == 1
        assert fac.stats.floored_pivots == 1
        with pytest.raises(FactorizationBreakdown, match="pivots collapsed"):
            ilu0(a, breakdown_frac=0.25)
        assert fresh_cache.stats()["hits"] == 1

    def test_hit_with_loose_threshold_succeeds(self, fresh_cache):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        fac = ilu0(a)
        assert ilu0(a, breakdown_frac=0.75) is fac


class TestFaultPlanBypass:
    def test_live_pivot_spec_bypasses(self, fresh_cache):
        a = random_spd_csr(20, 0.25, 8)
        plan = faults.FaultPlan(faults.FaultSpec("bad-pivot", count=1))
        with faults.inject(plan):
            ilut(a, 1e-3, 10)
        assert fresh_cache.stats()["bypasses"] == 1
        assert fresh_cache.stats()["misses"] == 0
        assert len(fresh_cache) == 0  # nothing stored either

    def test_exhausted_pivot_spec_caches_again(self, fresh_cache):
        # once the spec's budget is spent, factors are clean: caching resumes
        # inside the same plan, which is what lets retries reuse factors
        a = random_spd_csr(20, 0.25, 9)
        plan = faults.FaultPlan(faults.FaultSpec("bad-pivot", count=1))
        with faults.inject(plan):
            ilut(a, 1e-3, 10)  # fires the fault; bypassed
            f2 = ilut(a, 1e-3, 10)  # clean: miss + store
            f3 = ilut(a, 1e-3, 10)  # clean: hit
        assert f3 is f2
        s = fresh_cache.stats()
        assert (s["bypasses"], s["misses"], s["hits"]) == (1, 1, 1)

    def test_non_pivot_plan_does_not_bypass(self, fresh_cache):
        a = random_spd_csr(20, 0.25, 10)
        plan = faults.FaultPlan(faults.FaultSpec("ghost-drop", count=1))
        with faults.inject(plan):
            assert ilut(a, 1e-3, 10) is ilut(a, 1e-3, 10)
        s = fresh_cache.stats()
        assert (s["bypasses"], s["misses"], s["hits"]) == (0, 1, 1)

    def test_scoped_pivot_spec_only_bypasses_matching_scope(self, fresh_cache):
        a = random_spd_csr(20, 0.25, 11)
        plan = faults.FaultPlan(
            faults.FaultSpec("bad-pivot", count=-1, target="schur1")
        )
        with faults.inject(plan):
            ilut(a, 1e-3, 10)  # no scope entered: cached normally
            with faults.scope("schur1"):
                ilut(a, 1e-3, 10)  # in-scope: bypassed
        s = fresh_cache.stats()
        assert (s["bypasses"], s["misses"]) == (1, 1)


class TestConfiguration:
    def test_disabled_cache_untouched(self, fresh_cache):
        factor_cache.configure(enabled=False)
        try:
            a = random_spd_csr(20, 0.25, 12)
            f1 = ilut(a, 1e-3, 10)
            f2 = ilut(a, 1e-3, 10)
            assert f2 is not f1
            s = fresh_cache.stats()
            assert (s["hits"], s["misses"], s["size"]) == (0, 0, 0)
        finally:
            factor_cache.configure(enabled=True)

    def test_disabling_clears_store(self, fresh_cache):
        ilut(random_spd_csr(20, 0.25, 13), 1e-3, 10)
        assert len(fresh_cache) == 1
        factor_cache.configure(enabled=False)
        assert len(fresh_cache) == 0
        factor_cache.configure(enabled=True)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            factor_cache.configure(capacity=0)


class TestLru:
    def test_eviction_order(self):
        cache = FactorCache(capacity=2)
        facs = {}
        for i, name in enumerate(("k1", "k2", "k3")):
            facs[name] = ilu0(sp.identity(3, format="csr") * float(i + 2))
        cache.put("k1", facs["k1"])
        cache.put("k2", facs["k2"])
        assert cache.get("k1", "ilu0") is facs["k1"]  # refresh k1
        cache.put("k3", facs["k3"])  # evicts k2, the least recently used
        assert cache.get("k2", "ilu0") is None
        assert cache.get("k1", "ilu0") is facs["k1"]
        assert cache.get("k3", "ilu0") is facs["k3"]
        assert len(cache) == 2

    def test_shrinking_capacity_evicts(self, fresh_cache):
        for seed in range(4):
            ilu0(random_spd_csr(10, 0.4, seed))
        assert len(fresh_cache) == 4
        factor_cache.configure(capacity=2)
        try:
            assert len(fresh_cache) == 2
        finally:
            factor_cache.configure(capacity=32)


class TestKeying:
    def test_key_is_deterministic(self):
        a = random_spd_csr(15, 0.3, 14)
        k1 = FactorCache.key("ilut", a, (1e-3, 10, 0.0))
        k2 = FactorCache.key("ilut", a, (1e-3, 10, 0.0))
        assert k1 == k2 and len(k1) == 64

    @pytest.mark.parametrize("tier", ["reference", "numpy"])
    @pytest.mark.parametrize("factor", [
        lambda a: ilu0(a),
        lambda a: ilut(a, 1e-3, 10),
    ])
    def test_forced_tier_bypasses(self, fresh_cache, factor, tier):
        # every kernel computes the same bytes, so the key names none; a
        # forced tier is a comparison of kernels, and must not be served a
        # factor another kernel computed
        a = random_spd_csr(15, 0.3, 15)
        cached = factor(a)
        with obs.tracing() as tracer, kernels.forced_tier(tier):
            assert factor(a) is not cached
        s = fresh_cache.stats()
        assert (s["bypasses"], s["misses"], s["hits"], s["size"]) == (1, 1, 0, 1)
        (event,) = [e for e in tracer.orphan_events if e["name"] == "factor.cache"]
        assert event["attrs"] | {"outcome": "bypass", "reason": "forced-tier"} == event["attrs"]


class TestRemember:
    """What is built from cached factors lives and dies with them."""

    @staticmethod
    def _builds():
        made = []

        def build():
            made.append(object())
            return made[-1]

        return made, build

    def test_warm_factors_get_the_first_build(self, fresh_cache):
        a, b = random_spd_csr(12, 0.3, 20), random_spd_csr(12, 0.3, 21)
        facs = [ilu0(a), ilu0(b)]
        made, build = self._builds()
        first = fresh_cache.remember(facs, ("stack",), build)
        assert fresh_cache.remember([ilu0(a), ilu0(b)], ("stack",), build) is first
        assert len(made) == 1
        stats = fresh_cache.stats()
        assert (stats["stack_hits"], stats["stack_misses"], stats["stacks"]) == (1, 1, 1)

    def test_tag_and_order_are_part_of_the_key(self, fresh_cache):
        facs = [ilu0(random_spd_csr(12, 0.3, s)) for s in (22, 23)]
        made, build = self._builds()
        fresh_cache.remember(facs, ("stack", (3, 4)), build)
        fresh_cache.remember(facs, ("stack", (4, 3)), build)
        fresh_cache.remember(facs[::-1], ("stack", (3, 4)), build)
        assert len(made) == 3

    @pytest.mark.parametrize("drop", ["clear", "disable"])
    def test_clear_and_disable_drop_the_memo(self, fresh_cache, drop):
        a = random_spd_csr(12, 0.3, 24)
        made, build = self._builds()
        fresh_cache.remember([ilu0(a)], ("stack",), build)
        if drop == "clear":
            fresh_cache.clear()
        else:
            factor_cache.configure(enabled=False)
            factor_cache.configure(enabled=True)
        assert fresh_cache.stats()["stacks"] == 0
        fresh_cache.remember([ilu0(a)], ("stack",), build)
        assert len(made) == 2

    def test_evicting_any_factor_drops_what_was_built_from_it(self, fresh_cache):
        mats = [random_spd_csr(10, 0.4, s) for s in range(25, 28)]
        made, build = self._builds()
        factor_cache.configure(capacity=3)
        try:
            facs = [ilu0(m) for m in mats]
            fresh_cache.remember(facs[:2], ("pair",), build)
            fresh_cache.remember(facs[2:], ("one",), build)
            ilu0(random_spd_csr(10, 0.4, 28))  # evicts facs[0], the oldest
            assert fresh_cache.stats()["stacks"] == 1
            assert fresh_cache.remember(facs[2:], ("one",), build) is made[1]
        finally:
            factor_cache.configure(capacity=32)

    def test_factors_the_cache_does_not_hold_get_fresh_builds(self, fresh_cache):
        a = random_spd_csr(12, 0.3, 29)
        made, build = self._builds()
        stray = ilu0(a)
        fresh_cache.clear()                 # stray is no longer resident
        fresh_cache.remember([stray], ("stack",), build)
        fresh_cache.remember([stray], ("stack",), build)
        factor_cache.configure(enabled=False)
        try:
            off = ilu0(a)
            fresh_cache.remember([off], ("stack",), build)
        finally:
            factor_cache.configure(enabled=True)
        assert len(made) == 3
        stats = fresh_cache.stats()
        assert (stats["stack_hits"], stats["stack_misses"], stats["stacks"]) == (0, 0, 0)

    def test_hits_and_misses_are_traced(self, fresh_cache):
        from repro import obs

        facs = [ilu0(random_spd_csr(12, 0.3, 30))]
        _, build = self._builds()
        with obs.tracing() as tracer:
            fresh_cache.remember(facs, ("stack",), build)
            fresh_cache.remember(facs, ("stack",), build)
        outcomes = [
            (e["attrs"]["what"], e["attrs"]["outcome"]) for e in tracer.orphan_events
            if e["name"] == "factor.cache" and e["attrs"]["alg"] == "stack"
        ]
        assert outcomes == [("stack", "miss"), ("stack", "hit")]
