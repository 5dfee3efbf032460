import numpy as np
import pytest

from repro.comm.communicator import Communicator
from repro.distributed.layout import Layout
from repro.distributed.ops import DistributedOps
from repro.krylov.ops import fixed_tree_sum


class TestDistributedOps:
    def test_dot_matches_numpy(self, rng):
        lay = Layout.from_sizes([3, 4, 3])
        ops = DistributedOps(Communicator(3), lay)
        x, y = rng.random(10), rng.random(10)
        assert ops.dot(x, y) == pytest.approx(float(x @ y))

    @pytest.mark.parametrize("sizes", [[3, 4, 3], [2, 2, 2, 2], [1, 5, 2, 3, 4]])
    def test_dot_is_the_fixed_tree_sum_of_rank_partials(self, rng, sizes):
        # bit for bit: per-rank partials combined by the fixed pairwise tree,
        # not a left-to-right sum of the partials
        lay = Layout.from_sizes(sizes)
        ops = DistributedOps(Communicator(len(sizes)), lay)
        x, y = rng.random(sum(sizes)), rng.random(sum(sizes))
        parts = [np.dot(x[s], y[s]) for s in lay.slices]
        assert ops.dot(x, y) == fixed_tree_sum(parts)

    def test_dot_charges_allreduce_and_flops(self, rng):
        lay = Layout.from_sizes([5, 5])
        comm = Communicator(2)
        ops = DistributedOps(comm, lay)
        ops.dot(rng.random(10), rng.random(10))
        assert comm.ledger.allreduces == 1
        assert comm.ledger.crit_flops == 10.0  # 2 * max local size

    def test_norm_nonnegative(self, rng):
        lay = Layout.from_sizes([4, 4])
        ops = DistributedOps(Communicator(2), lay)
        assert ops.norm(np.zeros(8)) == 0.0
        x = rng.random(8)
        assert ops.norm(x) == pytest.approx(np.linalg.norm(x))

    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError):
            DistributedOps(Communicator(2), Layout.from_sizes([1, 2, 3]))

    def test_charge_local_axpy(self):
        lay = Layout.from_sizes([6, 2])
        comm = Communicator(2)
        DistributedOps(comm, lay).charge_local_axpy(3)
        assert comm.ledger.crit_flops == 2 * 3 * 6
