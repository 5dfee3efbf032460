"""Driver-side worker compute: real backends only, ship on refusal,
bitwise parity.

These tests drive :mod:`repro.comm.compute`'s ops against a real
multiprocess backend (2 rank processes) without a full solve, plus the
``request_many`` batch contract of the real transport.  What a rank holds is
read back from the traced rounds: a round a rank refuses leaves no event,
so a LOAD round in the trace is a key that rank lacked.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.comm import compute
from repro.comm.backends import framing
from repro.comm.communicator import Communicator
from repro.distributed.layout import Layout
from repro.distributed.matrix import distribute_matrix
from repro.distributed.ops import DistributedOps
from repro.distributed.partition_map import PartitionMap
from repro.factor.ilu0 import ilu0
from repro.kernels import apply as apply_kernels
from repro.krylov.ops import fixed_tree_sum


def _factor(n: int, scale: float = 1.0):
    return ilu0(scale * sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                                 [-1, 0, 1], format="csr"))


def _round_ops(tracer) -> list[str]:
    """The op names of the ``comm.worker.round`` events a trace recorded."""
    events = list(tracer.orphan_events)
    for span in tracer.spans:
        events.extend(span.events)
    return [e["attrs"]["op"] for e in events if e["name"] == "comm.worker.round"]


def _apply(comm, tag: str, r: np.ndarray):
    """``apply_factors`` on two 6-row factors keyed by ``tag``: ``(z, the
    driver's z)``."""
    layout = Layout.from_sizes([6, 6])
    facs = {rank: _factor(6, rank + 1.0) for rank in range(2)}
    keys = {rank: f"{tag}-{rank}" for rank in facs}
    z = compute.apply_factors(
        comm, keys, layout, r,
        lambda rank: compute.load_factor(keys[rank], facs[rank], None))
    want = np.concatenate([facs[rank].solve(r[layout.local_slice(rank)]) for rank in facs])
    return z, want


@pytest.fixture(scope="module")
def mp_comm():
    comm = Communicator(2, backend="multiprocess")
    yield comm
    comm.close()


@pytest.fixture(scope="module")
def system(tiny_case):
    """(pm, dmat) for the TC1 case over the two ranks of ``mp_comm``."""
    pm = PartitionMap(
        tiny_case.coupling_graph, tiny_case.membership(2, seed=0), num_ranks=2
    )
    return pm, distribute_matrix(tiny_case.matrix, pm)


class TestGating:
    def test_simulated_ranks_send_no_round(self, system, tiny_case):
        pm, dmat = system
        comm = Communicator(2)
        try:
            with obs.tracing() as tracer:
                dmat.matvec(comm, pm.to_distributed(tiny_case.rhs))
            assert _round_ops(tracer) == []
        finally:
            comm.close()


class TestShipOnRefusal:
    def test_factors_ship_exactly_once(self, mp_comm):
        r = np.linspace(-1.0, 1.0, 12)
        with obs.tracing() as tracer:
            _apply(mp_comm, "ship-once", r)
            before = mp_comm.comm_stats.messages
            z, want = _apply(mp_comm, "ship-once", r)
        # both ranks refused the first APPLY; the second finds the keys held
        assert _round_ops(tracer) == ["load-factor", "apply", "apply"]
        assert mp_comm.comm_stats.messages - before == 2
        assert z.tobytes() == want.tobytes()

    def test_only_the_ranks_that_refuse_are_shipped(self, mp_comm):
        """Rank 1 holds its key, rank 0 does not: the LOAD round and the
        repeated op go to rank 0 alone."""
        fac = _factor(6)
        compute.ship(mp_comm, {1: compute.load_factor("half-1", fac, None)})
        keys = {0: "half-0", 1: "half-1"}
        shipped = []

        def load(rank):
            shipped.append(rank)
            return compute.load_factor(keys[rank], fac, None)

        with obs.tracing() as tracer:
            compute.apply_factors(mp_comm, keys, Layout.from_sizes([6, 6]),
                                  np.ones(12), load)
        assert shipped == [0]
        rounds = [e["attrs"] for e in tracer.orphan_events
                  if e["name"] == "comm.worker.round"]
        assert [(a["op"], a["ranks"]) for a in rounds] == [
            ("apply", [1]), ("load-factor", [0]), ("apply", [0])]

    def test_new_world_reships(self, mp_comm):
        """What a rank holds belongs to its world: a communicator on
        another world — what an ``absorb_rank`` recovery gets, since a
        damaged world is never reused — has ranks that hold nothing, so
        state moves again."""
        r = np.ones(12)
        _apply(mp_comm, "new-world", r)
        other = Communicator(2, backend="multiprocess")
        try:
            assert other.backend is not mp_comm.backend  # mp_comm holds its lease
            with obs.tracing() as tracer:
                z, want = _apply(other, "new-world", r)
            assert _round_ops(tracer) == ["load-factor", "apply"]
            assert z.tobytes() == want.tobytes()
        finally:
            other.close()

    def test_matvec_blocks_ship_once(self, mp_comm, system, tiny_case):
        pm, dmat = system
        x = pm.to_distributed(tiny_case.rhs)
        with obs.tracing() as tracer:
            compute.matvec(mp_comm, dmat, x)
            compute.matvec(mp_comm, dmat, x)
        assert _round_ops(tracer) == ["load-matrix", "matvec", "matvec"]


class TestBitwiseParity:
    def test_apply_factors_matches_driver_sweeps(self, mp_comm):
        rng = np.random.default_rng(5)
        z, want = _apply(mp_comm, "parity", rng.standard_normal(12))
        assert z.tobytes() == want.tobytes()

    def test_apply_then_matvec_on_the_same_vector(self, mp_comm, system, tiny_case):
        """The sweeps' output fed straight back to a MATVEC round gives the
        driver's fused product bit for bit: nothing is kept between ops."""
        pm, dmat = system
        facs = [ilu0(a) for a in dmat.owned_square]
        keys = {rank: f"apply-matvec-{rank}" for rank in range(2)}
        r = pm.to_distributed(tiny_case.rhs)
        z = compute.apply_factors(
            mp_comm, keys, pm.layout, r,
            lambda rank: compute.load_factor(keys[rank], facs[rank], None))
        want_z = np.concatenate([
            facs[rank].solve(r[pm.layout.local_slice(rank)]) for rank in keys
        ])
        assert z.tobytes() == want_z.tobytes()
        y = compute.matvec(mp_comm, dmat, z)
        assert y.tobytes() == apply_kernels.csr_matvec(dmat._fused, z).tobytes()

    def test_distributed_dot_identical_either_transport(self, mp_comm):
        layout = Layout.from_sizes([5, 8])
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(13), rng.standard_normal(13)
        inproc = Communicator(2)
        try:
            local = DistributedOps(inproc, layout).dot(x, y)
        finally:
            inproc.close()
        shipped = DistributedOps(mp_comm, layout).dot(x, y)
        want = fixed_tree_sum([
            float(np.dot(x[layout.local_slice(r)], y[layout.local_slice(r)]))
            for r in range(2)
        ])
        assert local == shipped == want  # bitwise: same partials, same tree

    def test_distributed_dot_never_leaves_the_driver(self, mp_comm):
        """A reduction on a real backend sends no command round."""
        ops = DistributedOps(mp_comm, Layout.from_sizes([5, 8]))
        x = np.arange(13.0)
        with obs.tracing() as tracer:
            got = ops.dot(x, x)
        assert _round_ops(tracer) == []
        assert got == float(np.dot(x[:5], x[:5])) + float(np.dot(x[5:], x[5:]))


class TestRequestMany:
    def test_failures_are_values_not_raises(self, mp_comm):
        # an undeliverable message must come back as an exception *value*
        # so one bad rank cannot mask the other ranks' results
        backend = mp_comm.backend
        good = framing.encode_frame(
            framing.CMD, 0, 0, 999,
            compute.load_matrix("k", sp.identity(2, format="csr")))
        out = backend.request_many({0: good}, timeout=2.0)
        assert out[0].kind == framing.RESULT
