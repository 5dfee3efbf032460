"""Fixed-order pairwise tree reduction: the deterministic-dot contract."""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.communicator import Communicator
from repro.distributed.layout import Layout
from repro.distributed.ops import DistributedOps
from repro.krylov.ops import fixed_tree_sum, tree_plan

FLOATS = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e12, max_value=1e12)


class TestFixedTreeSum:
    def test_empty_is_zero(self):
        assert fixed_tree_sum([]) == 0.0

    def test_single_partial_passes_through_bitwise(self):
        # p = 1 must reproduce the historical whole-vector dot bit for bit
        v = 0.1 + 0.2
        assert fixed_tree_sum([v]) == v

    def test_combination_order_is_ascending_pairwise(self):
        # ((p0+p1) + (p2+p3)) — not left-to-right accumulation
        p = [1e16, 1.0, -1e16, 1.0]
        assert fixed_tree_sum(p) == (p[0] + p[1]) + (p[2] + p[3])

    def test_odd_tail_passes_through_each_level(self):
        p = [1.0, 2.0, 3.0]
        assert fixed_tree_sum(p) == (p[0] + p[1]) + p[2]
        p5 = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert fixed_tree_sum(p5) == ((p5[0] + p5[1]) + (p5[2] + p5[3])) + p5[4]

    @given(parts=st.lists(FLOATS, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_deterministic_function_of_the_partials(self, parts):
        a = fixed_tree_sum(parts)
        b = fixed_tree_sum(list(parts))
        assert a == b or (np.isnan(a) and np.isnan(b))

    @given(parts=st.lists(FLOATS, min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_matches_explicit_tree(self, parts):
        vals = list(parts)
        while len(vals) > 1:
            nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
            if len(vals) % 2:
                nxt.append(vals[-1])
            vals = nxt
        assert fixed_tree_sum(parts) == vals[0]


#: partials as a rank's dot can return them: signed zeros, both infinities
#: and NaN included
PARTIALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
)


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


class TestTreePlan:
    @given(parts=st.lists(PARTIALS, min_size=1, max_size=9))
    @settings(max_examples=400, deadline=None)
    def test_the_plan_is_the_tree_to_the_bit(self, parts):
        p = [float(v) for v in parts]
        for i, j in tree_plan(len(p)):
            p[i] += p[j]
        assert _bits(p[0]) == _bits(fixed_tree_sum(parts))

    @given(data=st.data(), nranks=st.integers(min_value=1, max_value=9))
    @settings(max_examples=200, deadline=None)
    def test_distributed_dot_is_the_tree_of_rank_partials_to_the_bit(
        self, data, nranks
    ):
        sizes = data.draw(st.lists(
            st.integers(min_value=0, max_value=4), min_size=nranks, max_size=nranks))
        n = sum(sizes)
        x = np.array(data.draw(st.lists(PARTIALS, min_size=n, max_size=n)), dtype=float)
        y = np.array(data.draw(st.lists(PARTIALS, min_size=n, max_size=n)), dtype=float)
        lay = Layout.from_sizes(sizes)
        comm = Communicator(nranks)
        with np.errstate(all="ignore"):
            got = DistributedOps(comm, lay).dot(x, y)
            want = fixed_tree_sum([np.dot(x[s], y[s]) for s in lay.slices])
        assert _bits(got) == _bits(want)
        assert (comm.ledger.allreduces, comm.ledger.total_flops) == (1, 2.0 * n)
