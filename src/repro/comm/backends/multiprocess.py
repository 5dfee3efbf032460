"""The multiprocess backend: every rank is a real OS process.

Each rank runs :func:`_worker_main` — a loop on the child end of a duplex
pipe that sleeps until a frame arrives, validates it
(:mod:`~repro.comm.backends.framing`: seq + CRC-32), executes CMDs
(NAKing one whose arena slot fails its CRC), exits on SHUTDOWN or pipe
EOF and NAKs any other kind.  No ghost values cross the pipes: the driver
holds both ends of every ghost exchange.  The parent side implements
:meth:`MultiprocessBackend.request_many` with deadline-based response
matching (stale replies from earlier timed-out attempts are drained and
discarded by ``(kind, src, dst, seq)``; the world keeps the seq counters,
so no later communicator reuses a seq).

A started world outlives the communicator that started it: ``close()``
hands it back to :mod:`~repro.comm.backends.pool`, which keeps it for the
next communicator of the same size while :meth:`MultiprocessBackend.reusable`
holds.

Failure detection is the point of this backend:

* a worker that **exited** (clean exit, crash, SIGKILL — including the
  ``proc-kill`` injector) is noticed by ``Process.is_alive()`` /
  ``exitcode`` without burning a timeout window;
* a worker that is **hung** (SIGSTOP via ``proc-hang``, livelock) lets
  command rounds time out; the :class:`~repro.comm.backends.supervisor
  .RankSupervisor` counts the misses and, once the budget is exhausted,
  the backend *fences* it (SIGKILL) so it cannot wake up later and write
  into a world that has moved on.

Both paths classify through the supervisor into the existing taxonomy
(:class:`RankDeadError` / :class:`MessageTimeout`), which is what lets the
unchanged ``absorb_rank`` + checkpoint recovery machinery handle *real*
process death.

This module is the one place in the package allowed to touch raw
:mod:`multiprocessing` primitives and real sleeps (lint rule RPR008).
"""

from __future__ import annotations

import multiprocessing
import os
import select
import signal
from multiprocessing.connection import Connection
from time import monotonic

from repro import obs
from repro.comm.backends import framing, worker
from repro.comm.backends.base import (
    ExecutionBackend,
    TransportBroken,
    TransportTimeout,
)
from repro.comm.backends.supervisor import READY, RankSupervisor
from repro.comm.communicator import RetryPolicy
from repro.resilience.errors import CommFault, MessageCorruption

#: the retry policy of every real rank round: transports wait real
#: milliseconds, so a wider window than the simulated default, still bounded
#: well under a second per transfer
REAL_RETRY_POLICY = RetryPolicy(max_retries=3, timeout=0.1, backoff=2.0)

#: bound on a rank's spawn -> HELLO handshake and on joining a killed rank
STARTUP_TIMEOUT = 15.0

#: how long :meth:`MultiprocessBackend.shutdown` waits for a rank to exit on
#: its SHUTDOWN frame before it kills the process
SHUTDOWN_GRACE = 0.25


def _worker_main(rank: int, size: int, conn: Connection) -> None:
    """The rank process: validate and compute until shutdown."""
    # the driver owns interrupt handling; workers die by SHUTDOWN frame,
    # pipe EOF, or the supervisor's fencing SIGKILL
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # fork inherits driver state the child must not act on: an attached
    # tracer would emit spans into a buffer nobody drains, and an active
    # fault plan would double-fire injections (the driver already fires
    # them at its own hook sites).  Neutralize both before serving.
    obs.set_tracer(obs.NULL_TRACER)
    from repro import faults as _faults
    _faults._ACTIVE = None
    store = worker.SubdomainStore()
    # an idle rank sleeps in poll() with no timeout: only a frame or the
    # driver's EOF wakes it.  Blocking in recv_bytes() instead made rounds
    # whose ranks compute at once 15-20 % slower (2-core Linux VM,
    # tc1 n=101, P=2 block1 solves).
    poller = select.poll()
    poller.register(conn.fileno(), select.POLLIN)
    try:
        conn.send_bytes(framing.encode_frame(framing.HELLO, rank, rank, 0))
        while True:
            poller.poll()
            raw = conn.recv_bytes()
            try:
                frame = framing.decode_frame(raw)
            except MessageCorruption as exc:
                conn.send_bytes(framing.nak_reply(raw, exc, rank))
                continue
            if frame.kind == framing.SHUTDOWN:
                return
            if frame.kind == framing.CMD:
                # worker-resident compute; every op is idempotent, so a
                # retransmitted CMD (same seq) simply re-executes and
                # returns a bitwise-identical result
                try:
                    result = worker.execute(store, frame.payload)
                except MessageCorruption as exc:  # an arena slot failed its CRC
                    conn.send_bytes(framing.nak_reply(raw, exc, rank))
                    continue
                conn.send_bytes(framing.encode_frame(
                    framing.RESULT, frame.src, frame.dst, frame.seq, result,
                ))
                continue
            conn.send_bytes(framing.encode_frame(
                framing.NAK, frame.src, frame.dst, frame.seq,
                f"unexpected {frame.kind_name}".encode(),
            ))
    except (EOFError, BrokenPipeError, OSError):
        return  # driver went away; nothing left to serve


class MultiprocessBackend(ExecutionBackend):
    """Ranks as supervised OS processes over pipe transport."""

    name = "multiprocess"
    is_real = True

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self.supervisor = RankSupervisor(size)
        # fork keeps spawn cost in the low milliseconds; fall back to the
        # platform default (spawn) where fork does not exist
        self._ctx = multiprocessing.get_context(
            "fork" if hasattr(os, "fork") else None)
        self._procs: list[multiprocessing.Process | None] = [None] * size
        self._conns: list[Connection | None] = [None] * size
        self._pollers: list = [None] * size  # one select.poll per live pipe
        self._started = False
        #: the process whose children the ranks are: only it may talk to them
        self._owner = os.getpid()

    # -- lifecycle ---------------------------------------------------------

    def reusable(self) -> bool:
        """Whether a later communicator may lease this world as it is: it
        is up, in the process that started it, undamaged, and every rank
        is READY (none dead, suspect or fenced) with its process alive."""
        if not self._started or self.damaged or os.getpid() != self._owner:
            return False
        return all(
            rec.state == READY and not rec.fenced and self.check_alive(rec.rank)
            for rec in self.supervisor.records
        )

    def abandon(self) -> None:
        """Let go of a world this process inherited by fork, touching
        nothing the parent's ranks can see: close this process's copies of
        the pipe ends and arenas, and never signal, write to or reap a
        rank."""
        for conn in self._conns:
            if conn is not None:
                conn.close()
        self.close_arenas()
        self._procs = [None] * self.size
        self._conns = [None] * self.size
        self._pollers = [None] * self.size
        self._started = False

    def ensure_started(self) -> None:
        if self._started:
            return
        self._owner = os.getpid()
        with obs.span("comm.backend.start", backend=self.name,
                      ranks=self.size) as span:
            for rank in range(self.size):
                self._spawn(rank)
            pids = []
            for rank in range(self.size):
                self._await_hello(rank)
                pids.append(self.rank_pid(rank))
            span.set(pids=pids)
        self._started = True
        obs.event("comm.backend.ready", backend=self.name, ranks=self.size)

    def _spawn(self, rank: int) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(rank, self.size, child),
            name=f"repro-rank-{rank}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._procs[rank] = proc
        self._conns[rank] = parent
        self._pollers[rank] = select.poll()
        self._pollers[rank].register(parent.fileno(), select.POLLIN)
        self.supervisor.record_spawn(rank, proc.pid)

    def respawn(self, rank: int) -> None:
        """Put a fresh process in ``rank``'s place, through the same spawn
        path: whatever was there is killed and reaped first, the
        supervisor's record starts over at SPAWNED, and the world forgets
        the rank's arena (the new process holds nothing: its first command
        is refused and the driver re-ships)."""
        self._check_rank(rank)
        self.forget_rank(rank)
        proc, conn = self._procs[rank], self._conns[rank]
        if proc is not None:
            proc.kill()
            proc.join(timeout=STARTUP_TIMEOUT)
        if conn is not None:
            conn.close()
        self._spawn(rank)
        self._await_hello(rank)
        obs.event("comm.backend.respawn", backend=self.name, rank=rank,
                  pid=self.rank_pid(rank))

    def _await_hello(self, rank: int) -> None:
        conn = self._conns[rank]
        assert conn is not None
        deadline = monotonic() + STARTUP_TIMEOUT
        while monotonic() < deadline:
            remaining = deadline - monotonic()
            if not conn.poll(max(remaining, 0.0)):
                break
            try:
                frame = framing.decode_frame(conn.recv_bytes())
            except (MessageCorruption, EOFError, OSError):
                break
            if frame.kind == framing.HELLO:
                self.supervisor.record_ready(rank)
                return
        # no handshake: treat as death-at-startup so recovery can absorb it
        self._record_exit_if_dead(rank, force=True)
        raise self.supervisor.classify(rank, phase="startup")

    def shutdown(self) -> None:
        if os.getpid() != self._owner:
            self.abandon()  # a forked copy: the ranks are not ours to stop
            return
        self.close_arenas()
        if not any(p is not None for p in self._procs):
            return
        clean = 0
        for rank in range(self.size):
            proc, conn = self._procs[rank], self._conns[rank]
            if proc is None:
                continue
            if conn is not None and proc.is_alive():
                try:
                    conn.send_bytes(framing.encode_frame(
                        framing.SHUTDOWN, rank, rank, 0
                    ))
                except (BrokenPipeError, OSError):
                    pass
            proc.join(timeout=SHUTDOWN_GRACE)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=STARTUP_TIMEOUT)
            else:
                clean += 1
            if conn is not None:
                conn.close()
            self._procs[rank] = None
            self._conns[rank] = None
            self._pollers[rank] = None
        self._started = False
        obs.event("comm.backend.shutdown", backend=self.name,
                  ranks=self.size, clean_exits=clean)

    # -- transport ---------------------------------------------------------

    def request_many(self, messages, timeout: float):
        """Send to every addressed rank, *then* collect the responses.

        This is the overlap primitive worker-resident compute depends on:
        all CMD frames hit the pipes before the driver blocks on the first
        response, so the rank processes execute their subdomain work
        concurrently while the driver waits.
        """
        self.ensure_started()
        results: dict[int, framing.Frame | Exception] = {}
        sent: dict[int, tuple[int, int, int]] = {}
        for rank in sorted(messages):
            self._check_rank(rank)
            try:
                sent[rank] = self._send(rank, messages[rank])
            except (TransportTimeout, TransportBroken) as exc:
                results[rank] = exc
        deadline = monotonic() + timeout
        for rank in sorted(sent):
            try:
                results[rank] = self._collect(
                    rank, sent[rank], deadline, timeout
                )
            except (TransportTimeout, TransportBroken, MessageCorruption) as exc:
                results[rank] = exc
        return results

    def _send(self, rank: int, raw: bytes) -> tuple[int, int, int]:
        """Push one CMD frame down ``rank``'s pipe; returns the ``(src,
        dst, seq)`` its response must carry."""
        if self._record_exit_if_dead(rank):
            raise TransportBroken(rank, "process exited")
        conn = self._conns[rank]
        if conn is None:
            raise TransportBroken(rank, "transport closed")
        _, src, dst, seq = framing.peek_header(raw)
        try:
            conn.send_bytes(raw)
        except (BrokenPipeError, OSError) as exc:
            self._record_exit_if_dead(rank, force=True)
            raise TransportBroken(rank, str(exc)) from exc
        return src, dst, seq

    def _collect(
        self,
        rank: int,
        want: tuple[int, int, int],
        deadline: float,
        timeout: float,
    ) -> framing.Frame:
        """Wait for the validated RESULT or NAK matching ``want`` until
        ``deadline``."""
        conn = self._conns[rank]
        if conn is None:
            raise TransportBroken(rank, "transport closed")
        while True:
            remaining = deadline - monotonic()
            if remaining <= 0 or not self._pollers[rank].poll(1000.0 * remaining):
                if self._record_exit_if_dead(rank):
                    raise TransportBroken(rank, "process exited mid-request")
                raise TransportTimeout(rank, timeout)
            try:
                resp = framing.decode_frame(conn.recv_bytes())
            except (EOFError, OSError) as exc:
                self._record_exit_if_dead(rank, force=True)
                raise TransportBroken(rank, str(exc)) from exc
            # a corrupt response frame raises MessageCorruption: the
            # delivery round counts a checksum failure and retransmits
            if (resp.src, resp.dst, resp.seq) != want or resp.kind not in (
                framing.RESULT, framing.NAK
            ):
                continue  # stale reply from an earlier timed-out attempt
            return resp

    # -- liveness / supervision -------------------------------------------

    def _record_exit_if_dead(self, rank: int, force: bool = False) -> bool:
        """Record (and report) death when the OS says the process is gone."""
        proc = self._procs[rank]
        if proc is None:
            if not self.supervisor.is_dead(rank):
                self.supervisor.record_exit(rank, None)
            return True
        if force or not proc.is_alive():
            self.supervisor.record_exit(rank, proc.exitcode)
            return True
        return False

    def check_alive(self, rank: int) -> bool:
        self._check_rank(rank)
        if not self._started:
            return True
        return not self._record_exit_if_dead(rank)

    def record_ready(self, rank: int) -> None:
        self.supervisor.record_ready(rank)

    def handle_timeout(self, rank: int) -> str:
        """A command round to ``rank`` timed out: record, maybe fence."""
        if self._record_exit_if_dead(rank):
            return self.supervisor.state(rank)
        state = self.supervisor.record_miss(rank)
        if self.supervisor.should_fence(rank):
            self.fence(rank)
            state = self.supervisor.state(rank)
        return state

    def fence(self, rank: int) -> None:
        """SIGKILL an unresponsive rank so it cannot resurface later.

        Idempotent: fencing a rank that is already DEAD (a prior fence, a
        crash noticed in between, or a concurrent recovery path beating us
        to it) is a no-op — no second SIGKILL, no duplicate events.
        """
        if self.supervisor.is_dead(rank):
            return
        proc = self._procs[rank]
        self.supervisor.record_fenced(rank)
        if proc is not None and proc.is_alive():
            proc.kill()
            proc.join(timeout=STARTUP_TIMEOUT)
        self._record_exit_if_dead(rank, force=True)

    def rank_pid(self, rank: int) -> int | None:
        self._check_rank(rank)
        proc = self._procs[rank]
        return None if proc is None else proc.pid

    def classify(self, rank: int, **context) -> CommFault:
        return self.supervisor.classify(rank, **context)

    # -- fault injection hooks --------------------------------------------

    def kill_rank(self, rank: int) -> None:
        """SIGKILL ``rank`` (the ``proc-kill`` injector): real death.

        No-op on a world that is not running — injecting into a shut-down
        (or never-started) backend must not respawn the ranks just to kill
        one, and a second kill of an already-dead rank is equally inert.
        """
        self._check_rank(rank)
        if not self._started:
            return
        proc = self._procs[rank]
        if proc is not None and proc.is_alive():
            proc.kill()  # SIGKILL — the process gets no chance to clean up
            proc.join(timeout=STARTUP_TIMEOUT)
        self._record_exit_if_dead(rank, force=True)

    def hang_rank(self, rank: int) -> None:
        """SIGSTOP ``rank`` (the ``proc-hang`` injector): a live zombie.

        Like :meth:`kill_rank`, inert when the world is not running.
        """
        self._check_rank(rank)
        if not self._started:
            return
        pid = self.rank_pid(rank)
        if pid is not None and self.check_alive(rank):
            os.kill(pid, signal.SIGSTOP)

    # -- policy ------------------------------------------------------------

    def default_retry_policy(self) -> RetryPolicy:
        return REAL_RETRY_POLICY

    def __del__(self) -> None:  # pragma: no cover - belt and braces
        try:
            self.shutdown()
        except Exception:
            pass
