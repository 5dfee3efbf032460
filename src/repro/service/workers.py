"""The service's worker processes: one per worker thread, supervised.

:meth:`SolveService.start` forks them before any worker thread starts,
through :class:`~repro.comm.backends.multiprocess.MultiprocessBackend`'s
spawn path, so its :class:`~repro.comm.backends.supervisor.RankSupervisor`
keeps each one's lifecycle as a rank's.  A worker thread sends every
in-process chunk to its own process as one ``RUN_CHUNK`` round
(:func:`repro.comm.compute.run_chunk`): two threads compute on two cores,
where two threads in one interpreter only trade the GIL
(``docs/performance.md`` §10).  Each process keeps its own cases, partition
memo and factor cache, warm across the jobs it serves.

A worker killed mid-chunk, or hung past the chunk's timeout and fenced,
costs that chunk and nothing else: the slot is respawned at once and the
chunk comes back as one faulted attempt (``kind="worker"``), which
:func:`~repro.service.runner.run_job`'s retry rung restores from the job's
last checkpoint.  An active fault plan is lent to one chunk at a time
(:meth:`repro.faults.FaultPlan.lend`).
"""

from __future__ import annotations

from repro import faults
from repro.comm import compute
from repro.comm.backends.multiprocess import MultiprocessBackend
from repro.resilience.errors import CommFault
from repro.service.runner import Chunk


class WorkerPool:
    """``size`` worker processes, named like the threads that own them."""

    def __init__(self, size: int) -> None:
        self.backend = MultiprocessBackend(size)
        self.names = [f"worker-{i}" for i in range(size)]
        # slot i (and the world's (i, i) seq counter) belongs to thread i
        # alone: no lock guards these
        self._slots = [dict(chunks=0, respawns=0, maxrss_kb=0)
                       for _ in range(size)]
        self._closed = False

    def start(self) -> None:
        self._closed = False
        self.backend.ensure_started()

    def shutdown(self) -> None:
        self._closed = True
        self.backend.shutdown()

    def run_chunk(self, worker: str, spec, kwargs: dict,
                  timeout: float) -> Chunk:
        """One chunk of ``spec``'s job in ``worker``'s own process."""
        rank = self.names.index(worker)
        slot = self._slots[rank]
        plan = faults.active()
        loan = plan.lend() if plan is not None else None
        meta = {"case": spec.case, "size": spec.size, "faults": loan,
                "kwargs": dict(kwargs, retry_policy=vars(kwargs["retry_policy"]))}
        back = None
        try:
            out, arrays = compute.run_chunk(self.backend, rank, meta, timeout)
            back = out["faults"]
        except CommFault as exc:
            if not self._closed:
                self.backend.respawn(rank)
                slot["respawns"] += 1
            return Chunk("breakdown", [{
                "precond": kwargs["precond"], "kind": "worker",
                "status": "breakdown", "iterations": 0,
                "fault": f"{worker}: {exc}",
            }])
        finally:
            if loan is not None:
                plan.settle(back)
        slot["chunks"] += 1
        slot["maxrss_kb"] = out["maxrss_kb"]
        return Chunk(out["status"], out["attempts"], arrays[0].tolist(),
                     out["precond"], out["relres"])

    def stats(self) -> list[dict]:
        """Per worker: its (latest) pid, supervisor state, chunks run,
        respawns, and the peak RSS its last chunk reported (KiB)."""
        records = self.backend.supervisor.records
        return [
            {"worker": name, "pid": rec.pid, "state": rec.state, **slot}
            for name, rec, slot in zip(self.names, records, self._slots)
        ]
