"""Execution backends: resolution, the in-process backend, and real process
lifecycle."""

import os
import signal
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.comm import compute
from repro.comm.backends import (
    BACKEND_NAMES,
    InProcessBackend,
    MultiprocessBackend,
    framing,
    make_backend,
    resolve_backend,
)
from repro.comm.backends import pool, supervisor
from repro.comm.backends.base import TransportBroken, TransportTimeout
from repro.comm.communicator import Communicator, RetryPolicy
from repro.comm.delivery import deliver_round
from repro.resilience.errors import MessageTimeout, RankDeadError
from tests.conftest import command_round


def _request(backend, rank, raw, timeout):
    """One frame through the batch transport: its response or failure value."""
    return backend.request_many({rank: raw}, timeout)[rank]


def _cmd(rank, seq=1):
    """A LOAD_MATRIX CMD frame on ``rank``'s self-edge."""
    payload = compute.load_matrix("k", sp.identity(2, format="csr"))
    return framing.encode_frame(framing.CMD, rank, rank, seq, payload)


def _voluntary_switches(pid):
    """How often ``pid`` has given up the CPU of its own accord."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("voluntary_ctxt_switches:"):
                return int(line.split()[1])
    raise AssertionError(f"no voluntary_ctxt_switches for pid {pid}")


@pytest.fixture()
def mp_backend(monkeypatch):
    monkeypatch.setattr(supervisor, "FENCE_AFTER", 2)
    b = MultiprocessBackend(3)
    yield b
    b.shutdown()


class TestResolution:
    def test_default_is_inprocess(self):
        backend, owned = resolve_backend(None, 4)
        assert isinstance(backend, InProcessBackend) and owned

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
    def test_owned_world_is_pooled_on_close(self):
        """A world resolved from a name outlives its communicator: close
        pools it, ranks alive, and the next communicator leases it."""
        comm = Communicator(2, backend="multiprocess")
        comm.backend.ensure_started()
        pid = comm.backend.rank_pid(0)
        assert pid is not None and os.kill(pid, 0) is None  # alive
        comm.close()
        assert comm.backend.rank_pid(0) == pid and os.kill(pid, 0) is None
        again = Communicator(2, backend="multiprocess")
        assert again.backend is comm.backend
        assert pool.lease(2) is not comm.backend  # the lease is exclusive
        again.close()
        pool.drain()
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
    def test_no_transport(self):
        b = InProcessBackend(1)
        with pytest.raises(NotImplementedError, match="no transport"):
            _request(b, 0, _cmd(0), 1.0)

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
            b.check_alive(2)


class TestMultiprocessLifecycle:
    def test_workers_spawn_with_real_pids(self, mp_backend):
        mp_backend.ensure_started()
        pids = [mp_backend.rank_pid(r) for r in range(3)]
        assert all(p is not None and p != os.getpid() for p in pids)
        assert len(set(pids)) == 3

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads /proc/<pid>/status")
    def test_an_idle_rank_sleeps_until_a_frame_arrives(self):
        """No timer wakes an idle rank, so a second of idleness costs it at
        most a couple of context switches."""
        b = MultiprocessBackend(1)
        try:
            b.ensure_started()
            pid = b.rank_pid(0)
            time.sleep(0.2)  # let the HELLO send settle
            before = _voluntary_switches(pid)
            time.sleep(1.0)
            assert _voluntary_switches(pid) - before <= 2
            assert command_round(b, [0]) is None
        finally:
            b.shutdown()

    def test_corrupt_frame_nakked_with_reason(self, mp_backend):
        raw = bytearray(_cmd(1, seq=6))
        raw[-1] ^= 0xFF
        resp = _request(mp_backend, 1, bytes(raw), 1.0)
        assert resp.kind == framing.NAK
        assert b"checksum" in resp.payload

    def test_unexpected_kind_nakked(self, mp_backend):
        """A rank serves CMD and SHUTDOWN only: any other valid frame is
        NAKed as unexpected, on the frame's own envelope."""
        raw = framing.encode_frame(framing.HELLO, 0, 1, 5)
        resp = _request(mp_backend, 1, raw, 1.0)
        assert (resp.kind, resp.src, resp.dst, resp.seq) == (framing.NAK, 0, 1, 5)
        assert resp.payload == b"unexpected hello"
        assert command_round(mp_backend, [1]) is None

    @pytest.mark.parametrize("kind", [1, 2, 4, 5])
    def test_retired_probe_kinds_nakked(self, mp_backend, kind):
        """Kinds 1, 2, 4 and 5 are unassigned (the retired DATA/ACK and
        PING/PONG): a frame of any is NAKed as an unknown kind, and the
        rank serves on."""
        raw = bytearray(framing.encode_frame(framing.HELLO, 1, 1, 3))
        raw[4] = kind
        resp = _request(mp_backend, 1, bytes(raw), 1.0)
        assert resp.kind == framing.NAK and resp.payload == b"bad-kind"
        assert command_round(mp_backend, [1]) is None

    def test_a_command_round_readies_a_rank(self, mp_backend):
        assert command_round(mp_backend, [0]) is None
        assert mp_backend.supervisor.state(0) == "ready"

    def test_kill_detected_without_timeout(self, mp_backend):
        mp_backend.ensure_started()
        mp_backend.kill_rank(1)
        assert not mp_backend.check_alive(1)
        assert isinstance(_request(mp_backend, 1, _cmd(1), 5.0), TransportBroken)
        fault = mp_backend.classify(1)
        assert isinstance(fault, RankDeadError) and fault.rank == 1

    def test_hang_times_out_then_fences(self, mp_backend):
        mp_backend.ensure_started()
        mp_backend.hang_rank(2)
        assert isinstance(_request(mp_backend, 2, _cmd(2), 0.1), TransportTimeout)
        # escalate through the miss budget: SUSPECT, then fenced DEAD
        assert mp_backend.handle_timeout(2) == "suspect"
        assert isinstance(mp_backend.classify(2), MessageTimeout)
        assert mp_backend.handle_timeout(2) == "dead"
        assert mp_backend.supervisor.records[2].fenced
        assert isinstance(mp_backend.classify(2), RankDeadError)

    def test_a_command_round_fences_a_hung_rank(self, mp_backend):
        """A SIGSTOPped rank misses one window per attempt; the round that
        exhausts ``fence_after`` fences it and raises the dead rank."""
        mp_backend.ensure_started()
        mp_backend.hang_rank(2)
        fault = command_round(mp_backend, [2], RetryPolicy(3, 0.05))
        assert isinstance(fault, RankDeadError) and fault.rank == 2
        rec = mp_backend.supervisor.records[2]
        assert rec.fenced and rec.misses == 2 and rec.exitcode == -9
        assert command_round(mp_backend, [0, 1]) is None

    def test_hung_rank_can_resume_before_fencing(self, mp_backend):
        mp_backend.ensure_started()
        mp_backend.hang_rank(0)
        fault = command_round(mp_backend, [0], RetryPolicy(0, 0.05))
        assert isinstance(fault, MessageTimeout)
        assert mp_backend.supervisor.state(0) == "suspect"
        os.kill(mp_backend.rank_pid(0), signal.SIGCONT)
        assert command_round(mp_backend, [0]) is None
        assert mp_backend.supervisor.state(0) == "ready"

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
        mp_backend.fence(2)  # concurrent path losing the race: no-op
        assert mp_backend.supervisor.records[2].exitcode == exitcode
        assert isinstance(mp_backend.classify(2), RankDeadError)

    def test_respawn_puts_a_fresh_process_in_a_dead_rank(self, mp_backend):
        mp_backend.ensure_started()
        old = mp_backend.rank_pid(1)
        mp_backend.kill_rank(1)
        assert mp_backend.supervisor.is_dead(1)
        mp_backend.respawn(1)
        assert mp_backend.rank_pid(1) not in (None, old)
        assert mp_backend.supervisor.state(1) == "ready"
        assert command_round(mp_backend, [1]) is None


class TestRunChunkRound:
    """``compute.run_chunk``: one send, a long wait, death typed."""

    @staticmethod
    def _meta(**over):
        kwargs = dict(precond="block1", nparts=2, seed=0, scheme="general",
                      rtol=1e-6, maxiter=100, backend=None,
                      retry_policy=vars(RetryPolicy()), checkpoint_dir=None,
                      checkpoint_every=1, restore=False)
        return {"case": "tc1", "size": 9, "faults": None,
                "kwargs": {**kwargs, **over}}

    def test_a_chunk_solves_in_the_worker(self, mp_backend):
        from repro.comm.compute import run_chunk

        out, (residuals,) = run_chunk(mp_backend, 0, self._meta(), 30.0)
        assert out["status"] == "converged" and out["precond"] == "Block 1"
        assert len(residuals) == out["attempts"][0]["iterations"] + 1
        assert out["relres"] < 1e-5 and out["maxrss_kb"] > 0

    def test_a_failing_chunk_is_a_worker_error_naming_the_op(self, mp_backend):
        from repro.comm.compute import WorkerComputeError, run_chunk

        meta = dict(self._meta(nparts=20), size=3)
        with pytest.raises(WorkerComputeError, match="failed run-chunk: .*nparts=20"):
            run_chunk(mp_backend, 0, meta, 30.0)
        assert command_round(mp_backend, [0]) is None   # the worker lives on

    def test_a_hung_worker_is_fenced_at_the_timeout(self, mp_backend):
        from repro.comm.compute import run_chunk

        mp_backend.ensure_started()
        mp_backend.hang_rank(2)
        with pytest.raises(RankDeadError, match="fenced"):
            run_chunk(mp_backend, 2, self._meta(), 0.3)
        assert mp_backend.supervisor.records[2].fenced


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

    def test_a_kill_at_an_exchange_is_detected_at_the_next_command_round(self):
        """A ``proc-kill`` that fires at a ghost exchange kills the rank for
        real, but the exchange sends that rank nothing and completes; the
        next command round finds the rank dead."""
        from repro import faults
        from repro.comm.pattern import CommunicationPattern, ExchangeSpec

        pattern = CommunicationPattern(
            num_ranks=2, transfers=[ExchangeSpec(0, 1, np.array([0]), np.array([0]))]
        )
        comm = Communicator(2, backend="multiprocess")
        comm.backend.ensure_started()
        plan = faults.FaultPlan(faults.FaultSpec("proc-kill", rank=1))
        load = compute.load_matrix("k", sp.identity(2, format="csr"))
        try:
            with faults.inject(plan):
                ghost = [np.zeros(1), np.zeros(1)]
                pattern.exchange(comm, [np.full(1, 7.0), np.ones(1)], ghost)
                assert ghost[1][0] == 7.0
                (rec,) = plan.injected
                assert rec["kind"] == "proc-kill" and rec["degraded"] is False
                with pytest.raises(RankDeadError) as exc:
                    deliver_round(comm, {1: (1, load)},
                                  settle=lambda edge: None)
            assert exc.value.rank == 1
        finally:
            comm.close()

    def test_startup_death_during_first_command_round_is_typed(self, monkeypatch):
        """The backend starts lazily, inside the first command round (a
        ghost exchange sends the ranks nothing): a rank that never says
        HELLO must reach recovery as ``RankDeadError``."""
        hello = MultiprocessBackend._await_hello

        def no_hello_from_rank_1(self, rank):
            if rank != 1:
                return hello(self, rank)
            self._record_exit_if_dead(rank, force=True)
            raise self.supervisor.classify(rank, phase="startup")

        monkeypatch.setattr(MultiprocessBackend, "_await_hello", no_hello_from_rank_1)
        comm = Communicator(2, backend="multiprocess")
        load = compute.load_matrix("k", sp.identity(2, format="csr"))
        try:
            with pytest.raises(RankDeadError) as exc:
                deliver_round(comm, {1: (1, load)},
                              settle=lambda edge: None)
            assert exc.value.rank == 1
            assert exc.value.context["phase"] == "startup"
        finally:
            comm.close()
