import numpy as np
import pytest

from repro.comm.communicator import Communicator
from repro.comm.pattern import CommunicationPattern, ExchangeSpec


@pytest.fixture()
def two_rank_pattern():
    # rank 0 sends its owned[2] to rank 1's ghost[0]; rank 1 sends owned[0]
    # to rank 0's ghost[1]
    transfers = [
        ExchangeSpec(src=0, dst=1, send_local=np.array([2]), recv_ghost=np.array([0])),
        ExchangeSpec(src=1, dst=0, send_local=np.array([0]), recv_ghost=np.array([1])),
    ]
    return CommunicationPattern(num_ranks=2, transfers=transfers)


class TestCommunicationPattern:
    def test_exchange_moves_values(self, two_rank_pattern):
        comm = Communicator(2)
        owned = [np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0])]
        ghost = [np.zeros(2), np.zeros(1)]
        two_rank_pattern.exchange(comm, owned, ghost)
        assert ghost[1][0] == 3.0
        assert ghost[0][1] == 10.0

    def test_exchange_charges_messages_and_bytes(self, two_rank_pattern):
        comm = Communicator(2)
        owned = [np.zeros(3), np.zeros(2)]
        ghost = [np.zeros(2), np.zeros(1)]
        two_rank_pattern.exchange(comm, owned, ghost)
        led = comm.ledger
        assert led.total_msgs == 4  # both endpoints of both transfers
        assert led.total_bytes == 4 * 8
        assert led.crit_msgs == 2

    def test_neighbors_of(self, two_rank_pattern):
        assert two_rank_pattern.neighbors_of(0) == [1]
        assert two_rank_pattern.neighbors_of(1) == [0]

    def test_empty_pattern(self):
        p = CommunicationPattern(num_ranks=3, transfers=[])
        assert [p.neighbors_of(r) for r in range(3)] == [[], [], []]
        comm = Communicator(3)
        p.exchange(comm, [np.zeros(1)] * 3, [np.zeros(0)] * 3)
        assert comm.ledger.total_msgs == 0


class TestExchangeEdgeCases:
    def test_empty_interface_transfer(self):
        # a zero-length transfer is legal: nothing moves, nothing breaks
        t = ExchangeSpec(
            src=0, dst=1,
            send_local=np.array([], dtype=np.int64),
            recv_ghost=np.array([], dtype=np.int64),
        )
        assert t.count == 0 and t.max_send == -1 and t.max_recv == -1
        p = CommunicationPattern(num_ranks=2, transfers=[t])
        comm = Communicator(2)
        ghost = [np.zeros(0), np.zeros(0)]
        p.exchange(comm, [np.ones(2), np.ones(2)], ghost)
        assert ghost[1].size == 0

    def test_self_only_partition(self):
        # one rank owning everything: no neighbors, exchange is a no-op
        p = CommunicationPattern(num_ranks=1, transfers=[])
        comm = Communicator(1)
        owned = [np.array([1.0, 2.0])]
        p.exchange(comm, owned, [np.zeros(0)])
        assert comm.ledger.total_msgs == 0
        assert owned[0].tolist() == [1.0, 2.0]

    def test_wrong_rank_count_raises_clear_error(self, two_rank_pattern):
        comm = Communicator(2)
        with pytest.raises(ValueError, match="2 ranks"):
            two_rank_pattern.exchange(comm, [np.zeros(3)], [np.zeros(2)] * 2)

    def test_short_ghost_buffer_raises_clear_error(self, two_rank_pattern):
        comm = Communicator(2)
        owned = [np.zeros(3), np.zeros(2)]
        ghost = [np.zeros(2), np.zeros(0)]  # rank 1's ghost is too short
        with pytest.raises(ValueError, match=r"0->1.*ghost"):
            two_rank_pattern.exchange(comm, owned, ghost)

    def test_short_owned_buffer_raises_clear_error(self, two_rank_pattern):
        comm = Communicator(2)
        owned = [np.zeros(2), np.zeros(2)]  # rank 0 sends owned[2]: missing
        ghost = [np.zeros(2), np.zeros(1)]
        with pytest.raises(ValueError, match="owned"):
            two_rank_pattern.exchange(comm, owned, ghost)
