"""Envelope seq state across recovery, and straggler accounting."""

import numpy as np
import pytest

from repro.comm.communicator import Communicator
from repro.comm.pattern import CommunicationPattern, ExchangeSpec
from repro.faults import FaultPlan, FaultSpec, inject


class TestAdoptSeq:
    def test_surviving_edges_remap_down_past_the_dead_rank(self):
        prev = Communicator(4)
        # edges: 0->1 (seq advanced 3x), 1->3, 3->1
        for _ in range(3):
            prev.next_seq(0, 1)
        prev.next_seq(1, 3)
        prev.next_seq(3, 1)

        comm = Communicator(3)
        comm.adopt_seq(prev, dead_rank=2)
        # ranks 3 -> 2; rank 0/1 unchanged
        assert comm.backend.seq == {(0, 1): 3, (1, 2): 1, (2, 1): 1}
        # the adopted counter keeps climbing monotonically
        assert comm.next_seq(0, 1) == 3
        assert comm.next_seq(0, 1) == 4

    def test_edges_touching_the_dead_rank_are_dropped(self):
        prev = Communicator(3)
        prev.next_seq(0, 1)
        prev.next_seq(0, 2)   # dst dies
        prev.next_seq(2, 1)   # src dies

        comm = Communicator(2)
        comm.adopt_seq(prev, dead_rank=2)
        assert comm.backend.seq == {(0, 1): 1}
        # the dropped edge restarts from zero in the shrunken world
        assert comm.next_seq(0, 1) == 1

    def test_dead_rank_zero_shifts_every_survivor(self):
        prev = Communicator(3)
        prev.next_seq(1, 2)
        prev.next_seq(2, 1)
        comm = Communicator(2)
        comm.adopt_seq(prev, dead_rank=0)
        assert comm.backend.seq == {(0, 1): 1, (1, 0): 1}

    def test_size_mismatch_rejected(self):
        prev = Communicator(4)
        with pytest.raises(ValueError, match="size-4"):
            Communicator(4).adopt_seq(prev, dead_rank=1)
        with pytest.raises(ValueError, match="expected 3"):
            Communicator(2).adopt_seq(prev, dead_rank=1)


class TestStragglerWaits:
    def _pattern(self):
        transfers = [
            ExchangeSpec(0, 1, np.array([0]), np.array([0])),
            ExchangeSpec(1, 0, np.array([0]), np.array([0])),
        ]
        return CommunicationPattern(num_ranks=2, transfers=transfers)

    def test_counter_starts_at_zero_and_appears_in_stats(self):
        comm = Communicator(2)
        assert comm.comm_stats.straggler_waits == 0
        assert comm.comm_stats.as_dict()["straggler_waits"] == 0

    def test_straggler_injection_counts_waits(self):
        pattern = self._pattern()
        comm = Communicator(2)
        owned = [np.ones(1), np.ones(1)]
        ghost = [np.zeros(1), np.zeros(1)]
        plan = FaultPlan(FaultSpec("straggler", rank=0, count=-1, delay=1e-3))
        with inject(plan):
            pattern.exchange(comm, owned, ghost)
        # only rank 0's sends are late: one of the two transfers
        assert comm.comm_stats.straggler_waits == 1
        assert comm.comm_stats.messages == 2

    def test_clean_exchange_counts_no_waits(self):
        pattern = self._pattern()
        comm = Communicator(2)
        pattern.exchange(
            comm, [np.ones(1), np.ones(1)], [np.zeros(1), np.zeros(1)]
        )
        assert comm.comm_stats.straggler_waits == 0
