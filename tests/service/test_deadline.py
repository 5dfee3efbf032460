"""Deadline propagation: budgets, the rate estimator, retry-policy scaling."""

import math

import pytest

from repro.comm.communicator import RetryPolicy
from repro.service import deadline
from repro.service.deadline import (
    Deadline,
    IterationRateEstimator,
    iteration_budget,
    scaled_retry_policy,
)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestDeadline:
    def test_no_deadline_never_expires(self):
        d = Deadline(None, clock=FakeClock())
        assert d.remaining() == math.inf and not d.expired

    def test_counts_down_and_expires(self):
        clock = FakeClock()
        d = Deadline(2.0, clock=clock)
        assert d.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert d.remaining() == pytest.approx(0.5) and not d.expired
        clock.advance(0.6)
        assert d.expired

    def test_start_anchor_spends_queue_time(self):
        clock = FakeClock()
        clock.advance(10.0)
        # submitted at t=7, dispatched at t=10: 3 s already spent
        d = Deadline(5.0, clock=clock, start=7.0)
        assert d.remaining() == pytest.approx(2.0)


class TestIterationRateEstimator:
    def test_defaults_until_observed(self, monkeypatch):
        monkeypatch.setattr(deadline, "RATE_DEFAULT_S", 1e-2)
        est = IterationRateEstimator()
        assert est.estimate(("tc1", 13)) == 1e-2

    def test_first_observation_taken_whole(self):
        est = IterationRateEstimator()
        est.observe(("k",), wall_s=1.0, iterations=10)
        assert est.estimate(("k",)) == pytest.approx(0.1)

    def test_ewma_blends_toward_new_rate(self, monkeypatch):
        monkeypatch.setattr(deadline, "RATE_ALPHA", 0.5)
        est = IterationRateEstimator()
        est.observe(("k",), wall_s=1.0, iterations=10)   # 0.1 s/it
        est.observe(("k",), wall_s=3.0, iterations=10)   # 0.3 s/it
        assert est.estimate(("k",)) == pytest.approx(0.2)

    def test_degenerate_observations_ignored(self, monkeypatch):
        monkeypatch.setattr(deadline, "RATE_DEFAULT_S", 5.0)
        est = IterationRateEstimator()
        est.observe(("k",), wall_s=0.0, iterations=10)
        est.observe(("k",), wall_s=1.0, iterations=0)
        assert est.estimate(("k",)) == 5.0


class TestIterationBudget:
    def test_no_deadline_grants_the_whole_chunk(self):
        assert iteration_budget(math.inf, 1e-3, restart=20, max_chunk=100) == 100

    def test_rounds_down_to_whole_restart_cycles(self):
        # 0.055 s at 1 ms/it = 55 affordable -> 2 whole cycles of 20
        assert iteration_budget(0.055, 1e-3, restart=20, max_chunk=100) == 40

    def test_never_below_one_restart_cycle(self):
        assert iteration_budget(1e-6, 1.0, restart=20, max_chunk=100) == 20

    def test_never_above_max_chunk(self):
        assert iteration_budget(1e6, 1e-6, restart=20, max_chunk=60) == 60


class TestScaledRetryPolicy:
    def test_no_deadline_returns_base_unchanged(self):
        base = RetryPolicy(max_retries=3, timeout=0.1, backoff=2.0)
        assert scaled_retry_policy(base, math.inf) is base

    def test_ample_time_returns_base_unchanged(self):
        base = RetryPolicy(max_retries=3, timeout=0.1, backoff=2.0)
        assert scaled_retry_policy(base, 1e4) is base

    def test_tight_deadline_shrinks_timeout_not_structure(self, monkeypatch):
        monkeypatch.setattr(deadline, "RETRY_SHARE", 0.1)
        base = RetryPolicy(max_retries=3, timeout=0.1, backoff=2.0)
        scaled = scaled_retry_policy(base, remaining_s=1.0)
        assert scaled.max_retries == base.max_retries
        assert scaled.backoff == base.backoff
        assert scaled.timeout < base.timeout
        # worst-case cumulative wait now fits the 10% share of 1 s
        worst = scaled.timeout * (scaled.backoff**4 - 1) / (scaled.backoff - 1)
        assert worst == pytest.approx(0.1, rel=1e-6)

    def test_expired_deadline_still_grants_a_floor(self):
        base = RetryPolicy(max_retries=3, timeout=0.1, backoff=2.0)
        scaled = scaled_retry_policy(base, remaining_s=0.0)
        assert scaled.timeout > 0
