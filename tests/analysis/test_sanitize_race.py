"""Race detector: lockset tracking over the shared setup-phase state.

The load-bearing test here is the seeded-race regression: an
unsynchronized cross-thread mutation of the factor cache store fires
:class:`RaceDetected` under ``REPRO_SANITIZE=race`` and is invisible
without it.
"""

import threading

import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import race
from repro.analysis.sanitize.race import RaceDetected, RaceDetector, TrackedLock
from repro.factor.cache import FactorCache


@pytest.fixture(autouse=True)
def _disarm():
    yield
    sanitize.disable("race")


def _in_thread(fn):
    """Run ``fn`` on a fresh thread; return the exception it raised (or None)."""
    box = []

    def runner():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - test harness
            box.append(exc)

    t = threading.Thread(target=runner)
    t.start()
    t.join()
    return box[0] if box else None


class TestDetectorStateMachine:
    def test_single_thread_never_reports(self):
        det = RaceDetector()
        for _ in range(5):
            det.access("r", "write")
        assert not det.reports

    def test_cross_thread_write_without_locks_reports(self):
        sanitize.enable("race")
        det = race.get_detector()
        det.access("r", "write")
        exc = _in_thread(lambda: det.access("r", "write"))
        assert isinstance(exc, RaceDetected)
        assert det.reports and det.reports[0]["resource"] == "r"

    def test_cross_thread_reads_are_silent(self):
        sanitize.enable("race")
        det = race.get_detector()
        det.access("r", "read")
        assert _in_thread(lambda: det.access("r", "read")) is None

    def test_common_lock_protects(self):
        sanitize.enable("race")
        det = race.get_detector()
        lock = TrackedLock("shared.lock")

        def guarded():
            with lock:
                det.access("r", "write")

        guarded()
        assert _in_thread(guarded) is None
        assert not det.reports

    def test_holding_vouches_for_external_synchronization(self):
        sanitize.enable("race")
        det = race.get_detector()

        def ordered():
            with race.holding("queue.order"):
                det.access("r", "write")

        ordered()
        assert _in_thread(ordered) is None

    def test_lockset_intersection_narrows(self):
        sanitize.enable("race")
        det = race.get_detector()
        a, b = TrackedLock("lock.a"), TrackedLock("lock.b")

        with a, b:
            det.access("r", "write")
        assert _in_thread(lambda: _with(a, lambda: det.access("r", "write"))) is None
        # third access holds only b: intersection empties -> race
        exc = _in_thread(lambda: _with(b, lambda: det.access("r", "write")))
        assert isinstance(exc, RaceDetected)

    def test_forget_resets_ownership(self):
        sanitize.enable("race")
        det = race.get_detector()
        det.access("r", "write")
        det.forget("r")
        assert _in_thread(lambda: det.access("r", "write")) is None


def _with(lock, fn):
    with lock:
        fn()


class TestTrackedLock:
    def test_drop_in_lock_api(self):
        lock = TrackedLock("t.lock")
        assert lock.acquire()
        assert lock.locked()
        lock.release()
        assert not lock.locked()

    def test_unarmed_overhead_keeps_no_state(self):
        lock = TrackedLock("t.lock")
        with lock:
            assert race._held() == set()


class TestSeededRaceRegression:
    """Seed a real race on the factor cache store and on the tracer."""

    def _race_the_cache(self):
        cache = FactorCache(capacity=4)
        fac = object()  # stored opaquely; type only matters to readers
        cache._put_locked("k0", fac)  # main thread, bypassing the lock
        return _in_thread(lambda: cache._put_locked("k1", fac))

    def test_fires_under_env_arming(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "race")
        assert sanitize.refresh_from_env() == ("race",)
        exc = self._race_the_cache()
        assert isinstance(exc, RaceDetected)
        assert "factor.cache" in str(exc)

    def test_invisible_without_arming(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize.refresh_from_env() == ()
        assert self._race_the_cache() is None

    def test_locked_put_path_is_clean_across_threads(self):
        # two threads besides the main one, the way two solve-service
        # workers reach the process-wide cache
        sanitize.enable("race")
        cache = FactorCache(capacity=32)

        cache.put("k-main", object())
        for i in range(2):
            assert _in_thread(lambda i=i: cache.put(f"k{i}", object())) is None
        assert not race.get_detector().reports

    def test_locked_get_and_eviction_are_clean_across_threads(self):
        # lookups reorder the LRU and a full store evicts: both mutate the
        # store, both from threads that never created it
        sanitize.enable("race")
        cache = FactorCache(capacity=2)

        def put_get(i):
            cache.put(f"k{i}", object())
            assert cache.get(f"k{i}", "ilut") is not None

        for i in range(4):
            assert _in_thread(lambda i=i: put_get(i)) is None
        assert len(cache) == 2
        assert not race.get_detector().reports

    def test_tracer_cross_thread_span_detected(self):
        from repro.obs.tracer import Tracer

        sanitize.enable("race")
        tracer = Tracer()
        with tracer.span("main.phase"):
            pass

        def foreign_span():
            with tracer.span("foreign.phase"):
                pass

        exc = _in_thread(foreign_span)
        assert isinstance(exc, RaceDetected)

    def test_tracer_single_thread_untouched(self):
        from repro.obs.tracer import Tracer

        sanitize.enable("race")
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert len(tracer.spans) == 2
