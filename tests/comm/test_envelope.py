"""The ghost-exchange integrity envelope: seq numbers, retry, typed faults."""

import numpy as np
import pytest

from repro import faults, obs
from repro.comm.communicator import Communicator, RetryPolicy
from repro.comm.pattern import CommunicationPattern, ExchangeSpec
from repro.perfmodel.machine import machine_by_name
from repro.resilience.errors import RankDeadError


@pytest.fixture()
def pattern():
    transfers = [
        ExchangeSpec(src=0, dst=1, send_local=np.array([2]), recv_ghost=np.array([0])),
        ExchangeSpec(src=1, dst=0, send_local=np.array([0]), recv_ghost=np.array([1])),
    ]
    return CommunicationPattern(num_ranks=2, transfers=transfers)


def _buffers():
    owned = [np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0])]
    ghost = [np.zeros(2), np.zeros(1)]
    return owned, ghost


def _events(tracer, name):
    evs = [e for e in tracer.orphan_events if e["name"] == name]
    for s in tracer.spans:
        evs.extend(e for e in s.events if e["name"] == name)
    return evs


class TestRetryPolicy:
    def test_defaults_are_bounded(self):
        p = RetryPolicy()
        assert p.max_retries >= 1 and p.timeout > 0 and p.backoff >= 1.0

    def test_backoff_grows(self):
        p = RetryPolicy(max_retries=3, timeout=1e-3, backoff=2.0)
        assert p.wait(1) == pytest.approx(2e-3)
        assert p.wait(2) == pytest.approx(4e-3)

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_retries": -1}, {"timeout": -1e-3}, {"backoff": 0.5}],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestSequenceNumbers:
    def test_monotone_per_pair(self):
        comm = Communicator(2)
        assert [comm.next_seq(0, 1) for _ in range(3)] == [0, 1, 2]
        # independent channels do not share counters
        assert comm.next_seq(1, 0) == 0

    def test_message_count_tracked(self, pattern):
        comm = Communicator(2)
        owned, ghost = _buffers()
        pattern.exchange(comm, owned, ghost)
        pattern.exchange(comm, owned, ghost)
        assert comm.comm_stats.messages == 4
        assert comm.comm_stats.retries == 0


class TestDropAndCorrupt:
    # retry counts, event reasons and fault classes of drop / corrupt /
    # dead-rank deliveries are rows of tests/comm/test_delivery.py; what
    # stays here is what only the ghost exchange does with a delivery

    def test_failed_attempts_charge_the_ledger(self, pattern):
        comm = Communicator(2)
        owned, ghost = _buffers()
        plan = faults.FaultPlan(faults.FaultSpec("message-drop", count=1))
        with faults.inject(plan):
            pattern.exchange(comm, owned, ghost)
        # the failed attempt burned its timeout window on the ledger
        assert comm.ledger.delay_seconds == pytest.approx(comm.retry_policy.wait(0))

    def test_checksum_retry_names_both_crcs(self, pattern):
        comm = Communicator(2)
        owned, ghost = _buffers()
        plan = faults.FaultPlan(faults.FaultSpec("message-corrupt", count=1))
        with obs.tracing() as tracer, faults.inject(plan):
            pattern.exchange(comm, owned, ghost)
        assert ghost[1][0] == 3.0
        (ev,) = _events(tracer, "resilience.comm.retry")
        assert ev["attrs"]["expected"] != ev["attrs"]["got"]

    def test_underscore_kind_alias(self):
        assert faults.FaultSpec("message_drop").kind == "message-drop"

    def test_rank_filter(self, pattern):
        # a drop spec aimed at rank 7 never matches a 2-rank exchange
        comm = Communicator(2)
        owned, ghost = _buffers()
        plan = faults.FaultPlan(faults.FaultSpec("message-drop", count=-1, rank=7))
        with faults.inject(plan):
            pattern.exchange(comm, owned, ghost)
        assert comm.comm_stats.retries == 0 and ghost[1][0] == 3.0


class TestRankDead:
    def test_rank_dead_needs_rank(self):
        with pytest.raises(ValueError, match="rank"):
            faults.FaultSpec("rank-dead")

    def test_give_up_still_charges_the_burned_windows(self, pattern):
        comm = Communicator(2, retry_policy=RetryPolicy(max_retries=1, timeout=1e-3))
        owned, ghost = _buffers()
        plan = faults.FaultPlan(faults.FaultSpec("rank-dead", rank=1))
        with faults.inject(plan), pytest.raises(RankDeadError):
            pattern.exchange(comm, owned, ghost)
        # every attempt burned a timeout window before the sender gave up
        assert comm.ledger.delay_seconds == pytest.approx(1e-3 + 2e-3)

    def test_start_aims_at_kth_exchange(self, pattern):
        comm = Communicator(2)
        owned, ghost = _buffers()
        plan = faults.FaultPlan(faults.FaultSpec("rank-dead", rank=0, start=2))
        with faults.inject(plan):
            pattern.exchange(comm, owned, ghost)  # exchange 0: survives
            pattern.exchange(comm, owned, ghost)  # exchange 1: survives
            with pytest.raises(RankDeadError):
                pattern.exchange(comm, owned, ghost)  # exchange 2: dies

    def test_mark_recovered_clears_the_dead_set(self, pattern):
        comm = Communicator(2, retry_policy=RetryPolicy(max_retries=1, timeout=1e-3))
        owned, ghost = _buffers()
        plan = faults.FaultPlan(faults.FaultSpec("rank-dead", rank=1))
        with faults.inject(plan):
            with pytest.raises(RankDeadError):
                pattern.exchange(comm, owned, ghost)
            plan.mark_recovered(1)
            pattern.exchange(comm, owned, ghost)  # the remapped world works
        assert ghost[1][0] == 3.0


class TestStraggler:
    def test_delay_lands_on_ledger_and_machine_time(self, pattern):
        comm = Communicator(2)
        owned, ghost = _buffers()
        plan = faults.FaultPlan(
            faults.FaultSpec("straggler", count=-1, rank=0, delay=0.01)
        )
        with faults.inject(plan):
            pattern.exchange(comm, owned, ghost)
        # only the 0->1 transfer is slowed; data still correct
        assert ghost[1][0] == 3.0 and ghost[0][1] == 10.0
        assert comm.ledger.delay_seconds == pytest.approx(0.01)
        machine = machine_by_name("linux-cluster")
        assert machine.time(comm.ledger) >= 0.01

    def test_delays_accumulate_across_exchanges(self, pattern):
        comm = Communicator(2)
        owned, ghost = _buffers()
        plan = faults.FaultPlan(
            faults.FaultSpec("straggler", count=-1, delay=2e-3)
        )
        with faults.inject(plan):
            pattern.exchange(comm, owned, ghost)
            pattern.exchange(comm, owned, ghost)
        # both transfers of both exchanges fire (no rank filter)
        assert comm.ledger.delay_seconds == pytest.approx(4 * 2e-3)


class TestDeterminism:
    def test_same_plan_same_faults(self, pattern):
        def run():
            comm = Communicator(2)
            owned, ghost = _buffers()
            plan = faults.FaultPlan(
                [
                    faults.FaultSpec("message-drop", count=2, start=1),
                    faults.FaultSpec("straggler", count=3, delay=1e-3),
                ],
                seed=7,
            )
            with faults.inject(plan):
                for _ in range(4):
                    pattern.exchange(comm, owned, ghost)
            return plan.injected, comm.comm_stats.as_dict(), comm.ledger.delay_seconds

        first, second = run(), run()
        assert first == second
