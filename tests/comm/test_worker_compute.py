"""Driver-side worker-compute session: real backends only, ship-once,
bitwise parity.

These tests drive :class:`repro.comm.compute.WorkerCompute` against a real
multiprocess backend (2 rank processes) without a full solve, plus the
``request_many`` batch contract of both transports.
"""

import numpy as np
import pytest

from repro import obs
from repro.comm import compute
from repro.comm.backends import InProcessBackend, framing
from repro.comm.communicator import Communicator
from repro.distributed.layout import Layout
from repro.distributed.matrix import distribute_matrix
from repro.distributed.ops import DistributedOps
from repro.distributed.partition_map import PartitionMap
from repro.factor.ilu0 import ilu0
from repro.kernels import apply as apply_kernels
from repro.krylov.ops import fixed_tree_sum


def _factor_entry(key: str, n: int):
    import scipy.sparse as sp

    a = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1], format="csr")
    fac = ilu0(a)
    return compute.load_factor(key, fac, None), fac


def _round_ops(tracer) -> list[str]:
    """The op names of the ``comm.worker.round`` events a trace recorded."""
    events = list(tracer.orphan_events)
    for span in tracer.spans:
        events.extend(span.events)
    return [e["attrs"]["op"] for e in events if e["name"] == "comm.worker.round"]


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


class TestSessionGating:
    def test_inprocess_backend_gets_no_session(self):
        comm = Communicator(2)
        try:
            assert compute.session(comm) is None
        finally:
            comm.close()

    def test_session_is_cached_per_backend(self, mp_comm):
        wc = compute.session(mp_comm)
        assert wc is not None
        assert compute.session(mp_comm) is wc
        assert wc.backend is mp_comm.backend


class TestShipOnce:
    def test_factors_ship_exactly_once(self, mp_comm):
        wc = compute.session(mp_comm)
        entries = {rank: _factor_entry(f"ship-once-{rank}", 6)[0] for rank in range(2)}
        assert wc.ensure(entries) == 2
        assert wc.is_shipped(0, "ship-once-0")
        assert wc.is_shipped(1, "ship-once-1")
        # same content key: nothing moves the second time, not even a round
        before = mp_comm.comm_stats.messages
        assert wc.ensure(entries) == 0
        assert wc.ensure({}) == 0
        assert mp_comm.comm_stats.messages == before

    def test_new_session_reships(self, mp_comm):
        """An ``absorb_rank`` recovery builds a fresh session with an empty
        shipped set — state must move again (the workers' own key check
        makes the arrival idempotent)."""
        wc = compute.WorkerCompute(mp_comm)
        entry, _ = _factor_entry("ship-once-0", 6)
        assert not wc.is_shipped(0, "ship-once-0")
        assert wc.ensure({0: entry}) == 1

    def test_matvec_blocks_ship_once(self, mp_comm, system, tiny_case):
        pm, dmat = system
        wc = compute.WorkerCompute(mp_comm)
        x = pm.to_distributed(tiny_case.rhs)
        with obs.tracing() as tracer:
            wc.matvec(dmat, x)
            wc.matvec(dmat, x)
        assert _round_ops(tracer) == ["load-matrix", "matvec", "matvec"]


class TestBitwiseParity:
    def test_apply_factors_matches_driver_sweeps(self, mp_comm):
        wc = compute.session(mp_comm)
        layout = Layout.from_sizes([6, 6])
        keys, facs, entries = {}, {}, {}
        for rank in range(2):
            keys[rank] = f"parity-{rank}"
            entries[rank], facs[rank] = _factor_entry(keys[rank], 6)
        wc.ensure(entries)
        rng = np.random.default_rng(5)
        r = rng.standard_normal(12)
        z = wc.apply_factors(keys, layout, r)
        want = np.empty_like(r)
        for rank in range(2):
            sl = layout.local_slice(rank)
            want[sl] = facs[rank].solve(r[sl])
        assert z.tobytes() == want.tobytes()

    def test_apply_then_matvec_on_the_same_vector(self, mp_comm, system, tiny_case):
        """The sweeps' output fed straight back to a MATVEC round gives the
        driver's fused product bit for bit: nothing is kept between ops."""
        pm, dmat = system
        wc = compute.session(mp_comm)
        facs = [ilu0(a) for a in dmat.owned_square]
        keys = {rank: f"apply-matvec-{rank}" for rank in range(2)}
        wc.ensure({
            rank: compute.load_factor(keys[rank], facs[rank], None) for rank in keys
        })
        r = pm.to_distributed(tiny_case.rhs)
        z = wc.apply_factors(keys, pm.layout, r)
        want_z = np.concatenate([
            facs[rank].solve(r[pm.layout.local_slice(rank)]) for rank in keys
        ])
        assert z.tobytes() == want_z.tobytes()
        y = wc.matvec(dmat, z)
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
        assert compute.session(mp_comm) is not None
        ops = DistributedOps(mp_comm, Layout.from_sizes([5, 8]))
        x = np.arange(13.0)
        with obs.tracing() as tracer:
            got = ops.dot(x, x)
        assert _round_ops(tracer) == []
        assert got == float(np.dot(x[:5], x[:5])) + float(np.dot(x[5:], x[5:]))


class TestRequestMany:
    def test_loopback_answers_every_rank(self):
        backend = InProcessBackend(3)
        try:
            messages = {
                r: framing.encode_frame(framing.PING, r, r, 10 + r)
                for r in range(3)
            }
            out = backend.request_many(messages, timeout=1.0)
            assert sorted(out) == [0, 1, 2]
            for r, frame in out.items():
                assert frame.kind == framing.PONG and frame.seq == 10 + r
        finally:
            backend.shutdown()

    def test_failures_are_values_not_raises(self, mp_comm):
        # an undeliverable message must come back as an exception *value*
        # so one bad rank cannot mask the other ranks' results
        backend = mp_comm.backend
        good = framing.encode_frame(framing.PING, 0, 0, 999)
        out = backend.request_many({0: good}, timeout=2.0)
        assert out[0].kind == framing.PONG
