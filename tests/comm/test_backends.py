"""Execution backends: resolution, loopback, and real process lifecycle."""

import os

import numpy as np
import pytest

from repro.comm.backends import (
    BACKEND_ENV,
    BACKEND_NAMES,
    InProcessBackend,
    MultiprocessBackend,
    framing,
    make_backend,
    resolve_backend,
)
from repro.comm.backends.base import TransportBroken, TransportTimeout
from repro.comm.backends.supervisor import HeartbeatPolicy
from repro.comm.communicator import Communicator, RetryPolicy
from repro.resilience.errors import MessageTimeout, RankDeadError


def _request(backend, rank, raw, timeout):
    """One frame through the batch transport: its response or failure value."""
    return backend.request_many({rank: raw}, timeout)[rank]


@pytest.fixture()
def mp_backend():
    b = MultiprocessBackend(
        3, heartbeat=HeartbeatPolicy(probe_timeout=0.2, fence_after=2)
    )
    yield b
    b.shutdown()


class TestResolution:
    def test_default_is_inprocess(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        backend, owned = resolve_backend(None, 4)
        assert isinstance(backend, InProcessBackend) and owned

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "multiprocess")
        backend, owned = resolve_backend(None, 2)
        assert isinstance(backend, MultiprocessBackend) and owned
        backend.shutdown()

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "multiprocess")
        backend, _ = resolve_backend("inprocess", 2)
        assert isinstance(backend, InProcessBackend)

    def test_instance_passthrough_not_owned(self):
        mine = InProcessBackend(3)
        backend, owned = resolve_backend(mine, 3)
        assert backend is mine and not owned

    def test_instance_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sized for"):
            resolve_backend(InProcessBackend(3), 4)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_backend("mpi", 2)

    def test_backend_names_constructible(self):
        for name in BACKEND_NAMES:
            b = make_backend(name, 1)
            assert b.name == name
            b.shutdown()


class TestCommunicatorOwnership:
    def test_owned_backend_shut_down_on_close(self):
        comm = Communicator(2, backend="multiprocess")
        comm.backend.ensure_started()
        pid = comm.backend.rank_pid(0)
        assert pid is not None and os.kill(pid, 0) is None  # alive
        comm.close()
        assert comm.backend.rank_pid(0) is None

    def test_close_is_idempotent(self):
        comm = Communicator(2)
        comm.close()
        comm.close()

    def test_concurrent_close_shuts_down_once(self):
        import threading

        comm = Communicator(2)
        calls = []
        orig_shutdown = comm.backend.shutdown
        comm.backend.shutdown = lambda: (calls.append(1), orig_shutdown())
        barrier = threading.Barrier(4)

        def race():
            barrier.wait(timeout=5.0)
            comm.close()

        threads = [threading.Thread(target=race) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert len(calls) == 1  # exactly one close performed the shutdown

    def test_borrowed_backend_survives_close(self):
        mine = InProcessBackend(2)
        comm = Communicator(2, backend=mine)
        comm.close()
        assert comm.backend is mine  # still usable; caller owns shutdown

    def test_backend_default_retry_policy_adopted(self):
        real = Communicator(2, backend="multiprocess")
        sim = Communicator(2)
        try:
            assert real.retry_policy.timeout > sim.retry_policy.timeout
        finally:
            real.close()
            sim.close()

    def test_explicit_retry_policy_wins(self):
        policy = RetryPolicy(max_retries=1, timeout=0.5)
        comm = Communicator(2, backend="multiprocess", retry_policy=policy)
        try:
            assert comm.retry_policy is policy
        finally:
            comm.close()


class TestInProcessLoopback:
    def test_data_acked_with_payload_echo(self):
        b = InProcessBackend(2)
        payload = np.arange(5.0).tobytes()
        resp = _request(
            b, 1, framing.encode_frame(framing.DATA, 0, 1, 9, payload), 1.0
        )
        assert resp.kind == framing.ACK
        assert (resp.src, resp.dst, resp.seq) == (0, 1, 9)
        assert resp.payload == payload

    def test_ping_ponged(self):
        b = InProcessBackend(1)
        resp = _request(b, 0, framing.encode_frame(framing.PING, 0, 0, 1), 1.0)
        assert resp.kind == framing.PONG

    def test_no_real_processes(self):
        b = InProcessBackend(2)
        assert not b.is_real
        assert b.rank_pid(1) is None
        with pytest.raises(ValueError, match="no real processes"):
            b.kill_rank(0)
        with pytest.raises(ValueError, match="no real processes"):
            b.hang_rank(0)

    def test_rank_bounds_checked(self):
        b = InProcessBackend(2)
        with pytest.raises(ValueError, match="rank 2"):
            _request(b, 2, framing.encode_frame(framing.PING, 0, 2, 0), 1.0)


class TestMultiprocessLifecycle:
    def test_workers_spawn_with_real_pids(self, mp_backend):
        mp_backend.ensure_started()
        pids = [mp_backend.rank_pid(r) for r in range(3)]
        assert all(p is not None and p != os.getpid() for p in pids)
        assert len(set(pids)) == 3

    def test_data_round_trip_bitwise(self, mp_backend):
        payload = np.linspace(0.0, 1.0, 17)
        raw = framing.encode_frame(framing.DATA, 0, 2, 0, payload.tobytes())
        resp = _request(mp_backend, 2, raw, 1.0)
        assert resp.kind == framing.ACK
        echoed = np.frombuffer(resp.payload, dtype=np.float64)
        assert echoed.tobytes() == payload.tobytes()

    def test_stale_seq_nakked(self, mp_backend):
        new = framing.encode_frame(framing.DATA, 0, 1, 5, b"new")
        old = framing.encode_frame(framing.DATA, 0, 1, 4, b"old")
        assert _request(mp_backend, 1, new, 1.0).kind == framing.ACK
        resp = _request(mp_backend, 1, old, 1.0)
        assert resp.kind == framing.NAK
        assert resp.payload == b"stale-seq"

    def test_corrupt_frame_nakked_with_reason(self, mp_backend):
        raw = bytearray(framing.encode_frame(framing.DATA, 0, 1, 6, b"xyzw"))
        raw[-1] ^= 0xFF
        resp = _request(mp_backend, 1, bytes(raw), 1.0)
        assert resp.kind == framing.NAK
        assert b"checksum" in resp.payload

    def test_probe_healthy_rank(self, mp_backend):
        assert mp_backend.probe(0)
        assert mp_backend.supervisor.state(0) == "ready"

    def test_kill_detected_without_timeout(self, mp_backend):
        mp_backend.ensure_started()
        mp_backend.kill_rank(1)
        assert not mp_backend.check_alive(1)
        ping = framing.encode_frame(framing.PING, 1, 1, 1)
        assert isinstance(_request(mp_backend, 1, ping, 5.0), TransportBroken)
        fault = mp_backend.classify(1)
        assert isinstance(fault, RankDeadError) and fault.rank == 1

    def test_hang_times_out_then_fences(self, mp_backend):
        mp_backend.ensure_started()
        mp_backend.hang_rank(2)
        ping = framing.encode_frame(framing.PING, 2, 2, 1)
        assert isinstance(_request(mp_backend, 2, ping, 0.1), TransportTimeout)
        # escalate through the miss budget: SUSPECT, then fenced DEAD
        assert mp_backend.handle_timeout(2) == "suspect"
        assert isinstance(mp_backend.classify(2), MessageTimeout)
        assert mp_backend.handle_timeout(2) == "dead"
        assert mp_backend.supervisor.records[2].fenced
        assert isinstance(mp_backend.classify(2), RankDeadError)

    def test_hung_rank_can_resume_before_fencing(self, mp_backend):
        mp_backend.ensure_started()
        mp_backend.hang_rank(0)
        mp_backend.resume_rank(0)
        assert mp_backend.probe(0, timeout=2.0)

    def test_shutdown_reaps_every_worker(self, mp_backend):
        mp_backend.ensure_started()
        pids = [mp_backend.rank_pid(r) for r in range(3)]
        mp_backend.shutdown()
        for pid in pids:
            # kill(pid, 0) raising means the process is gone (daemon
            # children are reaped by join, not left as zombies)
            try:
                os.kill(pid, 0)
                alive = True
            except ProcessLookupError:
                alive = False
            assert not alive

    def test_shutdown_idempotent(self, mp_backend):
        mp_backend.ensure_started()
        mp_backend.shutdown()
        mp_backend.shutdown()

    def test_double_kill_is_a_noop(self, mp_backend):
        mp_backend.ensure_started()
        mp_backend.kill_rank(1)
        mp_backend.kill_rank(1)  # second SIGKILL on a DEAD rank: no-op
        assert mp_backend.supervisor.is_dead(1)
        assert isinstance(mp_backend.classify(1), RankDeadError)

    def test_kill_after_shutdown_does_not_respawn(self, mp_backend):
        # injecting proc-kill into a world that was already shut down must
        # not restart the ranks just to kill one of them
        mp_backend.ensure_started()
        mp_backend.shutdown()
        mp_backend.kill_rank(1)
        mp_backend.hang_rank(1)
        assert all(mp_backend.rank_pid(r) is None for r in range(3))
        assert not mp_backend._started

    def test_kill_before_start_does_not_spawn(self):
        b = MultiprocessBackend(2)
        b.kill_rank(0)
        assert b.rank_pid(0) is None and not b._started

    def test_double_fence_no_second_kill(self, mp_backend):
        mp_backend.ensure_started()
        mp_backend.hang_rank(2)
        for _ in range(2):
            mp_backend.handle_timeout(2)  # exhausts the miss budget, fences
        assert mp_backend.supervisor.records[2].fenced
        exitcode = mp_backend.supervisor.records[2].exitcode
        mp_backend._fence(2)  # concurrent path losing the race: no-op
        assert mp_backend.supervisor.records[2].exitcode == exitcode
        assert isinstance(mp_backend.classify(2), RankDeadError)


class TestExchangeOverBackend:
    def test_ghost_exchange_matches_inprocess_bitwise(self):
        from repro.comm.pattern import CommunicationPattern, ExchangeSpec

        transfers = [
            ExchangeSpec(0, 1, np.array([0, 2]), np.array([0, 1])),
            ExchangeSpec(1, 0, np.array([1]), np.array([0])),
        ]
        pattern = CommunicationPattern(num_ranks=2, transfers=transfers)
        rng = np.random.default_rng(11)
        owned = [rng.standard_normal(3), rng.standard_normal(2)]

        results = {}
        for name in BACKEND_NAMES:
            comm = Communicator(2, backend=name)
            try:
                ghost = [np.zeros(1), np.zeros(2)]
                pattern.exchange(comm, [o.copy() for o in owned], ghost)
                results[name] = [g.copy() for g in ghost]
                assert comm.comm_stats.messages == 2
            finally:
                comm.close()
        for got, want in zip(results["multiprocess"], results["inprocess"]):
            assert got.tobytes() == want.tobytes()

    def test_startup_death_during_first_exchange_is_typed(self, monkeypatch):
        """The backend starts lazily, inside the first delivery round: a rank
        that never says HELLO must reach recovery as ``RankDeadError``."""
        from repro.comm.pattern import CommunicationPattern, ExchangeSpec

        hello = MultiprocessBackend._await_hello

        def no_hello_from_rank_1(self, rank):
            if rank != 1:
                return hello(self, rank)
            self._record_exit_if_dead(rank, force=True)
            raise self.supervisor.classify(rank, phase="startup")

        monkeypatch.setattr(MultiprocessBackend, "_await_hello", no_hello_from_rank_1)
        pattern = CommunicationPattern(
            num_ranks=2, transfers=[ExchangeSpec(0, 1, np.array([0]), np.array([0]))]
        )
        comm = Communicator(2, backend="multiprocess")
        try:
            with pytest.raises(RankDeadError) as exc:
                pattern.exchange(comm, [np.ones(1), np.ones(1)], [np.zeros(1)] * 2)
            assert exc.value.rank == 1
            assert exc.value.context["phase"] == "startup"
        finally:
            comm.close()
