"""CaseCache builds per key: a cold key never stalls a built one."""

import threading

from repro.service import runner
from repro.service.runner import CaseCache
from tests.service.test_service import wait_until


def slow_builder(monkeypatch):
    """``build_case`` stub: ("slow", n) blocks on the returned gate."""
    gate, built = threading.Event(), []

    def build(case_key, size):
        built.append((case_key, size))
        if case_key == "slow":
            assert gate.wait(timeout=30.0), "test gate never opened"
        return object()

    monkeypatch.setattr(runner, "build_case", build)
    return gate, built


def test_cached_key_is_served_while_another_key_builds(monkeypatch):
    gate, built = slow_builder(monkeypatch)
    cache = CaseCache()
    fast = cache.get("fast", 9)
    cold = threading.Thread(target=cache.get, args=("slow", 9))
    cold.start()
    assert wait_until(lambda: ("slow", 9) in built)   # inside the builder now
    got = []
    warm = threading.Thread(target=lambda: got.append(cache.get("fast", 9)))
    warm.start()
    warm.join(timeout=10.0)
    assert not warm.is_alive(), "a cached lookup waited for a cold build"
    assert got == [fast]
    gate.set()
    cold.join(timeout=10.0)
    assert not cold.is_alive()
    assert built == [("fast", 9), ("slow", 9)]


def test_two_threads_asking_for_one_cold_key_build_it_once(monkeypatch):
    gate, built = slow_builder(monkeypatch)
    cache, got = CaseCache(), []
    threads = [
        threading.Thread(target=lambda: got.append(cache.get("slow", 9)))
        for _ in range(2)
    ]
    threads[0].start()
    assert wait_until(lambda: len(built) == 1)
    threads[1].start()
    gate.set()
    for t in threads:
        t.join(timeout=10.0)
        assert not t.is_alive()
    assert built == [("slow", 9)]
    assert len(got) == 2 and got[0] is got[1]
    assert cache.get("slow", 9) is got[0]
