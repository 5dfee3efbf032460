"""Resident rank worlds: a multiprocess world outlives its communicator.

``Communicator.close()`` hands a named multiprocess backend back to
:mod:`repro.comm.backends.pool`, and the next communicator of the same size
leases it with its ranks, resident state, arenas and seq counters.  One test
per rule that makes the reuse safe: seq continuity, no damaged world reused,
exclusive leases, fork safety and the bounded store, whose evictions any
number of ranks refuse and get re-shipped; and the point of it all, a
second solve that ships and probes nothing.
"""

import os
import signal
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro import faults, obs
from repro.cases import poisson2d_case
from repro.comm import compute
from repro.comm.backends import framing, pool, worker
from repro.comm.backends.base import TransportTimeout
from repro.comm.backends.supervisor import READY, SUSPECT
from repro.comm.communicator import Communicator, RetryPolicy
from repro.comm.delivery import deliver_round
from repro.comm.pattern import CommunicationPattern, ExchangeSpec
from repro.core.driver import solve_case
from repro.distributed.layout import Layout
from repro.factor import cache as factor_cache
from repro.factor.ilu0 import ilu0
from repro.kernels import apply as apply_kernels
from repro.resilience.errors import MessageTimeout, NotResident
from tests.conftest import command_round


def _events(tracer, name):
    evs = [e for e in tracer.orphan_events if e["name"] == name]
    for span in tracer.spans:
        evs.extend(e for e in span.events if e["name"] == name)
    return sorted(evs, key=lambda e: e["t"])


def _round_ops(tracer):
    return [e["attrs"]["op"] for e in _events(tracer, "comm.worker.round")]


def _laplacian(n):
    return sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1], format="csr")


def _started(size=2, **kwargs):
    comm = Communicator(size, backend="multiprocess", **kwargs)
    comm.backend.ensure_started()
    return comm


def _pooled(world):
    """Whether ``world`` is the pool's idle world of its size: the next
    lease gets it (and is handed back; a new world it got instead is shut
    down unstarted)."""
    got = pool.lease(world.size)
    pool.release(got)
    return got is world


def _idle_world(size=2):
    """The pool's idle world of ``size`` ranks (leased and handed back)."""
    comm = _started(size)
    world = comm.backend
    comm.close()
    assert _pooled(world)
    return world


@pytest.fixture(scope="module")
def case():
    return poisson2d_case(12)


class TestReuse:
    def test_second_solve_ships_and_probes_nothing(self, case, tmp_path, monkeypatch):
        """The second ``solve_case`` on one world leaves every rank's
        ``store.loads`` where it was and prepares no ``gstrs`` slots: the
        factors stay resident with their slots."""
        log = tmp_path / "calls"

        def logged(tag, fn):
            def wrapper(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(f"{tag} {os.getpid()}\n")
                return fn(*args, **kwargs)
            return wrapper

        # the ranks are forked after this, so they run the logged methods
        monkeypatch.setattr(apply_kernels, "_gstrs_slots",
                            logged("slots", apply_kernels._gstrs_slots))
        monkeypatch.setattr(worker.SubdomainStore, "put",
                            logged("load", worker.SubdomainStore.put))

        def rank_calls(pids):
            lines = log.read_text().split("\n") if log.exists() else []
            return sorted(line for line in lines if line and int(line.split()[1]) in pids)

        first = solve_case(case, "block1", nparts=2, backend="multiprocess")
        world = _idle_world()
        pids = {world.rank_pid(rank) for rank in range(2)}
        before = rank_calls(pids)
        assert {line.split()[0] for line in before} == {"load", "slots"}
        with obs.tracing() as tracer:
            second = solve_case(case, "block1", nparts=2, backend="multiprocess")
        assert rank_calls(pids) == before
        assert set(_round_ops(tracer)) == {"apply", "matvec"}
        assert not _events(tracer, "comm.backend.start")
        assert second.x_global.tobytes() == first.x_global.tobytes()
        assert second.iterations == first.iterations


def _load(key):
    """A LOAD_MATRIX command whose RESULT names ``key``."""
    return compute.load_matrix(key, _laplacian(2))


class TestSeqContinuity:
    def test_a_new_communicator_never_matches_a_stale_reply(self):
        """A timed-out attempt on communicator A leaves its reply in the
        pipe; B, on the same world, continues A's seq, so it never takes
        that reply (seq 0, had B started over) for the answer to its own
        command."""
        a = _started(1)
        stale = framing.encode_frame(framing.CMD, 0, 0, a.next_seq(0, 0), _load("stale"))
        res = a.backend.request_many({0: stale}, timeout=0.0)[0]
        assert isinstance(res, TransportTimeout)  # its RESULT is still on the way
        a.close()
        b = Communicator(1, backend="multiprocess")
        try:
            assert b.backend is a.backend
            got = []
            deliver_round(b, {0: (0, _load("fresh"))},
                          settle=lambda e: got.append(e.frame))
            (frame,) = got
            assert frame.seq == 1
            assert worker.unpack_command(frame.payload)[1]["key"] == "fresh"
            assert b.comm_stats.checksum_failures == 0
        finally:
            b.close()


class TestDamagedWorldsAreShutDown:
    @staticmethod
    def _closes_unpooled(comm):
        world = comm.backend
        comm.close()
        assert not _pooled(world)
        assert all(world.rank_pid(rank) is None for rank in range(world.size))

    def test_healthy_world_is_pooled(self):
        comm = _started()
        comm.close()
        assert _pooled(comm.backend)

    def test_dead_rank(self):
        comm = _started()
        comm.backend.kill_rank(1)
        self._closes_unpooled(comm)

    def test_suspect_rank(self):
        comm = _started()
        assert comm.backend.supervisor.record_miss(1) == SUSPECT
        self._closes_unpooled(comm)

    def test_fenced_rank(self):
        comm = _started()
        comm.backend.fence(1)
        self._closes_unpooled(comm)

    def test_round_that_gave_up(self):
        comm = _started(retry_policy=RetryPolicy(max_retries=0, timeout=0.05))
        world = comm.backend
        world.hang_rank(1)
        try:
            with pytest.raises(MessageTimeout):
                deliver_round(comm, {1: (1, _load("x"))},
                              settle=lambda e: None)
        finally:
            os.kill(world.rank_pid(1), signal.SIGCONT)
        # the rank answers again, so only the round's verdict keeps it out
        assert command_round(world, [1]) is None
        assert world.supervisor.state(1) == READY
        self._closes_unpooled(comm)

    def test_fault_plan_active_at_close(self):
        comm = _started()
        with faults.inject(faults.FaultPlan(faults.FaultSpec("ghost-drop", count=1))):
            self._closes_unpooled(comm)

    def test_fault_plan_active_during_a_round(self):
        """A ghost exchange under a plan is a delivery round even when the
        plan fires on nothing, and the world it ran beside is not pooled."""
        comm = _started()
        pattern = CommunicationPattern(
            num_ranks=2, transfers=[ExchangeSpec(0, 1, np.array([0]), np.array([0]))])
        ghost = [np.zeros(0), np.zeros(1)]
        plan = faults.FaultPlan(faults.FaultSpec("ghost-drop", count=1, start=1))
        with faults.inject(plan):
            pattern.exchange(comm, [np.full(1, 7.0), np.zeros(0)], ghost)
        assert plan.injected == [] and ghost[1][0] == 7.0
        self._closes_unpooled(comm)

    def test_no_lease_from_the_pool_under_a_plan(self):
        idle = _idle_world()
        with faults.inject(faults.FaultPlan(faults.FaultSpec("ghost-drop", count=1))):
            comm = Communicator(2, backend="multiprocess")
            assert comm.backend is not idle
            comm.close()
        assert _pooled(idle)


class TestExclusiveLeases:
    def test_threads_solving_at_one_size_get_their_own_worlds(self):
        idle = _idle_world()
        barrier = threading.Barrier(2)
        held, errors = [], []

        def solve():
            try:
                comm = Communicator(2, backend="multiprocess")
                try:
                    comm.backend.ensure_started()
                    held.append(comm.backend)
                    barrier.wait(timeout=30.0)  # both leases are out at once
                finally:
                    comm.close()
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=solve) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors
        assert len(held) == 2 and held[0] is not held[1]
        assert idle in held
        # at most one idle world per rank count: the other went down
        assert sum(_pooled(w) for w in held) == 1
        down = [w for w in held if w.rank_pid(0) is None]
        assert len(down) == 1


def _report_inherited_pool(conn, world):
    conn.send(pool.lease(world.size) is world)
    pool.drain()  # must not reach the parent's ranks, whatever the child holds
    conn.close()


class TestForkSafety:
    def test_forked_child_drops_idle_worlds(self):
        import multiprocessing

        world = _idle_world()
        ctx = multiprocessing.get_context("fork")
        mine, theirs = ctx.Pipe()
        child = ctx.Process(target=_report_inherited_pool, args=(theirs, world))
        child.start()
        assert mine.poll(30.0) and mine.recv() is False
        child.join(30.0)
        assert child.exitcode == 0
        assert command_round(world, range(2)) is None
        again = Communicator(2, backend="multiprocess")
        assert again.backend is world
        again.close()

    def test_service_worker_forked_after_a_solve(self, case, tmp_path):
        from repro.service import JobSpec, ServiceConfig, SolveService

        solve_case(case, "block1", nparts=2, backend="multiprocess")
        world = _idle_world()
        with SolveService(ServiceConfig(workers=1, spool_dir=str(tmp_path))) as svc:
            rec = svc.submit(JobSpec(case="tc1", size=9, nparts=2, precond="block1"))
            assert rec.wait(timeout=60.0) and rec.status == "converged"
        assert command_round(world, range(2)) is None
        again = Communicator(2, backend="multiprocess")
        assert again.backend is world
        again.close()


class TestBoundedStore:
    """A rank's store holds ``FactorCache.capacity`` keys per table, and the
    ranks are the only record of what they hold: a rank that lacks a key
    refuses the round, and the driver ships it and repeats, at any P."""

    @staticmethod
    def _small_world(size):
        """A started world whose ranks were forked with one-key tables."""
        prior = factor_cache.get_cache().capacity
        factor_cache.configure(capacity=1)
        try:
            return _started(size)
        finally:
            factor_cache.configure(capacity=prior)

    @staticmethod
    def _evicted(comm):
        """Ship every rank a factor, then a second key that evicts it from
        the rank's one-key table; returns the evicted ``(keys, factors)``."""
        facs = {rank: ilu0((rank + 1.0) * _laplacian(6)) for rank in range(comm.size)}
        keys = {rank: f"evict-a-{rank}" for rank in facs}
        compute.ship(comm, {rank: compute.load_factor(keys[rank], facs[rank], None)
                            for rank in facs})
        other = ilu0(_laplacian(7))
        compute.ship(comm, {rank: compute.load_factor(f"evict-b-{rank}", other, None)
                            for rank in facs})
        return keys, facs

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_an_evicted_key_is_reshipped(self, size):
        comm = self._small_world(size)
        try:
            keys, facs = self._evicted(comm)
            layout = Layout.from_sizes([6] * size)
            r = np.linspace(-1.0, 1.0, 6 * size)
            sent = comm.comm_stats.messages
            with obs.tracing() as tracer:
                z = compute.apply_factors(
                    comm, keys, layout, r,
                    lambda rank: compute.load_factor(keys[rank], facs[rank], None))
            # every rank refused the first APPLY, which left no round event
            assert comm.comm_stats.messages - sent == 3 * size
            assert _round_ops(tracer) == ["load-factor", "apply"]
            want = np.concatenate([facs[rank].solve(r[layout.local_slice(rank)])
                                   for rank in range(size)])
            assert z.tobytes() == want.tobytes()
        finally:
            comm.close()

    def test_a_second_refusal_is_the_typed_fault(self):
        comm = self._small_world(2)
        try:
            keys, facs = self._evicted(comm)
            layout = Layout.from_sizes([6, 6])
            with pytest.raises(NotResident, match="worker rank 0 failed apply"):
                compute.apply_factors(
                    comm, keys, layout, np.ones(12),
                    lambda rank: compute.load_factor("wrong", facs[rank], None))
        finally:
            comm.close()

    def test_solves_alternating_two_operators_on_one_world(self):
        """At capacity 1, ``solve_case`` over two operators in turn on one
        P = 2 world refuses and re-ships at every switch, and never fails
        (``solve_case`` has no fallback to hide a fault): every solution is
        bitwise its in-process twin."""
        comm = self._small_world(2)
        world = comm.backend
        comm.close()
        cases = [poisson2d_case(9), poisson2d_case(12)]
        want = [solve_case(c, "block1", nparts=2) for c in cases]
        for i in range(4):
            with obs.tracing() as tracer:
                got = solve_case(cases[i % 2], "block1", nparts=2, backend="multiprocess")
            assert got.status == "converged"
            assert got.x_global.tobytes() == want[i % 2].x_global.tobytes()
            # the other operator's matvec blocks evicted this one's
            assert "load-matrix" in _round_ops(tracer)
        assert _pooled(world)  # one world served every solve
