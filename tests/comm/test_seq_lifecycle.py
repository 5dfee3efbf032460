"""Straggler accounting of the ghost-exchange envelope."""

import numpy as np

from repro.comm.communicator import Communicator
from repro.comm.pattern import CommunicationPattern, ExchangeSpec
from repro.faults import FaultPlan, FaultSpec, inject


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
