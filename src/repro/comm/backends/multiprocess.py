"""The multiprocess backend: every rank is a real OS process.

Each rank runs :func:`_worker_main` — a small event loop on the child end of
a duplex pipe that validates incoming :mod:`~repro.comm.backends.framing`
frames (seq + CRC-32, the PR 3 integrity envelope now framing real bytes),
echoes DATA payloads back as ACKs, answers PING probes, and exits on
SHUTDOWN.  The parent side implements :meth:`MultiprocessBackend.request_many`
with deadline-based response matching (stale replies from earlier timed-out
attempts are drained and discarded by ``(kind, src, dst, seq)``).

Failure detection is the point of this backend:

* a worker that **exited** (clean exit, crash, SIGKILL — including the
  ``proc-kill`` injector) is noticed by ``Process.is_alive()`` /
  ``exitcode`` without burning a timeout window;
* a worker that is **hung** (SIGSTOP via ``proc-hang``, livelock) misses
  probe deadlines; the :class:`~repro.comm.backends.supervisor
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
from repro.comm.backends.supervisor import HeartbeatPolicy, RankSupervisor
from repro.comm.communicator import RetryPolicy
from repro.resilience.errors import CommFault, MessageCorruption


def _worker_main(rank: int, size: int, conn: Connection,
                 poll_interval: float) -> None:
    """The rank process: validate, ack, compute, heartbeat until shutdown."""
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
    try:
        conn.send_bytes(framing.encode_frame(framing.HELLO, rank, rank, 0))
        last_seq: dict[tuple[int, int], int] = {}
        while True:
            if not conn.poll(poll_interval):
                continue
            raw = conn.recv_bytes()
            try:
                frame = framing.decode_frame(raw)
            except MessageCorruption as exc:
                conn.send_bytes(framing.nak_reply(raw, exc, rank))
                continue
            if frame.kind == framing.SHUTDOWN:
                return
            if frame.kind == framing.PING:
                conn.send_bytes(framing.encode_frame(
                    framing.PONG, frame.src, frame.dst, frame.seq
                ))
                continue
            if frame.kind == framing.DATA:
                key = (frame.src, frame.dst)
                seen = last_seq.get(key, -1)
                if frame.seq < seen:
                    # an old envelope arriving after the edge moved on —
                    # e.g. stale state surviving a recovery remap
                    conn.send_bytes(framing.encode_frame(
                        framing.NAK, frame.src, frame.dst, frame.seq,
                        b"stale-seq",
                    ))
                    continue
                last_seq[key] = frame.seq
                conn.send_bytes(framing.encode_frame(
                    framing.ACK, frame.src, frame.dst, frame.seq,
                    frame.payload,
                ))
                continue
            if frame.kind == framing.CMD:
                # worker-resident compute; every op is idempotent, so a
                # retransmitted CMD (same seq) simply re-executes and
                # returns a bitwise-identical result
                conn.send_bytes(framing.encode_frame(
                    framing.RESULT, frame.src, frame.dst, frame.seq,
                    worker.execute(store, frame.payload),
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

    def __init__(
        self,
        size: int,
        heartbeat: HeartbeatPolicy | None = None,
        start_method: str | None = None,
    ) -> None:
        super().__init__(size)
        self.heartbeat = heartbeat or HeartbeatPolicy()
        self.supervisor = RankSupervisor(size, self.heartbeat)
        if start_method is None:
            # fork keeps spawn cost in the low milliseconds; fall back to
            # the platform default (spawn) where fork does not exist
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else None
        self._ctx = multiprocessing.get_context(start_method)
        self._procs: list[multiprocessing.Process | None] = [None] * size
        self._conns: list[Connection | None] = [None] * size
        self._ping_seq = 0
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def ensure_started(self) -> None:
        if self._started:
            return
        with obs.span("comm.backend.start", backend=self.name,
                      ranks=self.size) as span:
            for rank in range(self.size):
                parent, child = self._ctx.Pipe(duplex=True)
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(rank, self.size, child, self.heartbeat.poll_interval),
                    name=f"repro-rank-{rank}",
                    daemon=True,
                )
                proc.start()
                child.close()
                self._procs[rank] = proc
                self._conns[rank] = parent
                self.supervisor.record_spawn(rank, proc.pid)
            pids = []
            for rank in range(self.size):
                self._await_hello(rank)
                pids.append(self.rank_pid(rank))
            span.set(pids=pids)
        self._started = True
        obs.event("comm.backend.ready", backend=self.name, ranks=self.size)

    def _await_hello(self, rank: int) -> None:
        conn = self._conns[rank]
        assert conn is not None
        deadline = monotonic() + self.heartbeat.startup_timeout
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
            proc.join(timeout=self.heartbeat.probe_timeout)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=self.heartbeat.startup_timeout)
            else:
                clean += 1
            if conn is not None:
                conn.close()
            self._procs[rank] = None
            self._conns[rank] = None
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
        sent: dict[int, tuple[int, int, int, int]] = {}
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

    def _send(self, rank: int, raw: bytes) -> tuple[int, int, int, int]:
        """Push one frame down ``rank``'s pipe; returns its matching keys."""
        if self._record_exit_if_dead(rank):
            raise TransportBroken(rank, "process exited")
        conn = self._conns[rank]
        if conn is None:
            raise TransportBroken(rank, "transport closed")
        # header-only peek: the outgoing frame may be deliberately garbled
        # (corruption injection), and the matching keys live in the header
        want = framing.peek_header(raw)
        try:
            conn.send_bytes(raw)
        except (BrokenPipeError, OSError) as exc:
            self._record_exit_if_dead(rank, force=True)
            raise TransportBroken(rank, str(exc)) from exc
        return want

    def _collect(
        self,
        rank: int,
        want: tuple[int, int, int, int],
        deadline: float,
        timeout: float,
    ) -> framing.Frame:
        """Wait for the validated response matching ``want`` until ``deadline``."""
        want_kind, want_src, want_dst, want_seq = want
        conn = self._conns[rank]
        if conn is None:
            raise TransportBroken(rank, "transport closed")
        while True:
            remaining = deadline - monotonic()
            if remaining <= 0 or not conn.poll(remaining):
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
            if (resp.src, resp.dst, resp.seq) != (want_src, want_dst, want_seq):
                continue  # stale reply from an earlier timed-out attempt
            if want_kind == framing.PING and resp.kind != framing.PONG:
                continue
            if want_kind == framing.DATA and resp.kind not in (
                framing.ACK, framing.NAK
            ):
                continue
            if want_kind == framing.CMD and resp.kind not in (
                framing.RESULT, framing.NAK
            ):
                continue
            return resp

    def probe(self, rank: int, timeout: float | None = None) -> bool:
        """PING ``rank``; True on a PONG within the window, False on a miss.

        Misses are recorded with the supervisor (this is the heartbeat);
        a miss that exhausts the budget triggers fencing.
        """
        timeout = self.heartbeat.probe_timeout if timeout is None else timeout
        self._ping_seq += 1
        ping = framing.encode_frame(
            framing.PING, rank, rank, self._ping_seq
        )
        res = self.request_many({rank: ping}, timeout)[rank]
        if isinstance(res, TransportTimeout):
            self.handle_timeout(rank)
        if isinstance(res, Exception):  # timed out, broken, or a garbled PONG
            return False
        self.record_ready(rank)
        return True

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
        """A transfer/probe to ``rank`` timed out: record, maybe fence."""
        if self._record_exit_if_dead(rank):
            return self.supervisor.state(rank)
        state = self.supervisor.record_miss(rank)
        if self.supervisor.should_fence(rank):
            self._fence(rank)
            state = self.supervisor.state(rank)
        return state

    def _fence(self, rank: int) -> None:
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
            proc.join(timeout=self.heartbeat.startup_timeout)
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
            proc.join(timeout=self.heartbeat.startup_timeout)
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

    def resume_rank(self, rank: int) -> None:
        """SIGCONT a hung rank (test cleanup; real recovery fences instead)."""
        self._check_rank(rank)
        pid = self.rank_pid(rank)
        if pid is not None and self.check_alive(rank):
            os.kill(pid, signal.SIGCONT)

    # -- policy ------------------------------------------------------------

    def default_retry_policy(self) -> RetryPolicy:
        """Real transports wait real milliseconds: a wider window than the
        simulated default, still bounded well under a second per transfer."""
        return RetryPolicy(max_retries=3, timeout=0.1, backoff=2.0)

    def __del__(self) -> None:  # pragma: no cover - belt and braces
        try:
            self.shutdown()
        except Exception:
            pass
