"""Driver-side worker-compute session: gating, ship-once, bitwise parity.

These tests drive :class:`repro.comm.compute.WorkerCompute` against a real
multiprocess backend (2 rank processes) without a full solve, plus the
``request_many`` batch contract of both transports.
"""

import numpy as np
import pytest

from repro.comm import compute
from repro.comm.backends import InProcessBackend, framing
from repro.comm.communicator import Communicator
from repro.distributed.layout import Layout
from repro.distributed.ops import DistributedOps
from repro.factor.ilu0 import ilu0
from repro.krylov.ops import fixed_tree_sum


def _factor_entry(key: str, n: int):
    import scipy.sparse as sp

    a = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1], format="csr")
    fac = ilu0(a)
    meta, arrays = fac.to_wire(key)
    return key, meta, arrays, fac


@pytest.fixture(scope="module")
def mp_comm():
    comm = Communicator(2, backend="multiprocess")
    yield comm
    comm.close()


class TestSessionGating:
    def test_inprocess_backend_gets_no_session(self):
        comm = Communicator(2)
        try:
            assert compute.session(comm) is None
        finally:
            comm.close()

    def test_env_gate_disables_worker_compute(self, mp_comm, monkeypatch):
        monkeypatch.setenv(compute.COMPUTE_ENV, "0")
        assert compute.session(mp_comm) is None

    def test_session_is_cached_per_backend(self, mp_comm, monkeypatch):
        monkeypatch.delenv(compute.COMPUTE_ENV, raising=False)
        wc = compute.session(mp_comm)
        assert wc is not None
        assert compute.session(mp_comm) is wc
        assert wc.backend is mp_comm.backend


class TestShipOnce:
    def test_factors_ship_exactly_once(self, mp_comm):
        wc = compute.session(mp_comm)
        entries = {}
        for rank in range(2):
            key, meta, arrays, _ = _factor_entry(f"ship-once-{rank}", 6)
            entries[rank] = (key, meta, arrays)
        assert wc.ensure_factors(entries) == 2
        assert wc.is_shipped(0, "ship-once-0")
        assert wc.is_shipped(1, "ship-once-1")
        # same content key: nothing moves the second time
        assert wc.ensure_factors(entries) == 0

    def test_new_session_reships(self, mp_comm):
        """An ``absorb_rank`` recovery builds a fresh session with an empty
        shipped set — state must move again (the workers' own key check
        makes the arrival idempotent)."""
        wc = compute.WorkerCompute(mp_comm)
        key, meta, arrays, _ = _factor_entry("ship-once-0", 6)
        assert not wc.is_shipped(0, key)
        assert wc.ensure_factors({0: (key, meta, arrays)}) == 1


class TestBitwiseParity:
    def test_apply_factors_matches_driver_sweeps(self, mp_comm):
        wc = compute.session(mp_comm)
        layout = Layout.from_sizes([6, 6])
        keys, facs = {}, {}
        entries = {}
        for rank in range(2):
            key, meta, arrays, fac = _factor_entry(f"parity-{rank}", 6)
            entries[rank] = (key, meta, arrays)
            keys[rank], facs[rank] = key, fac
        wc.ensure_factors(entries)
        rng = np.random.default_rng(5)
        r = rng.standard_normal(12)
        z = wc.apply_factors(keys, layout, r)
        want = np.empty_like(r)
        for rank in range(2):
            sl = layout.local_slice(rank)
            want[sl] = facs[rank].solve(r[sl])
        assert z.tobytes() == want.tobytes()
        assert wc._z_last is z  # parked for a fused ghost matvec

    def test_dot_partials_match_driver_partials(self, mp_comm):
        wc = compute.session(mp_comm)
        layout = Layout.from_sizes([5, 8])
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal(13), rng.standard_normal(13)
        parts = wc.dot_partials(layout, x, y)
        want = [float(np.dot(x[layout.local_slice(r)],
                             y[layout.local_slice(r)])) for r in range(2)]
        assert parts == want

    def test_distributed_dot_identical_either_transport(self, mp_comm):
        layout = Layout.from_sizes([5, 8])
        ops = DistributedOps(mp_comm, layout)
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(13), rng.standard_normal(13)
        local = ops.dot(x, y)
        shipped = fixed_tree_sum(compute.session(mp_comm).dot_partials(layout, x, y))
        assert local == shipped  # bitwise: same partials, same tree

    def test_distributed_dot_never_leaves_the_driver(self, mp_comm, monkeypatch):
        """No gate routes an 8 µs reduction through a pipe round."""
        monkeypatch.setenv("REPRO_WORKER_DOT", "1")
        wc = compute.session(mp_comm)
        monkeypatch.setattr(wc, "dot_partials", None)
        ops = DistributedOps(mp_comm, Layout.from_sizes([5, 8]))
        x = np.arange(13.0)
        assert ops.dot(x, x) == float(np.dot(x[:5], x[:5])) + float(np.dot(x[5:], x[5:]))


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
