"""The shared-memory arenas' fault model.

MATVEC and APPLY vectors cross a rank boundary in the rank's arena, an
anonymous memfd segment; the frames name the slots and carry CRC-32s of the
input and the output.  A slot that fails its CRC is retried like a garbled
frame, a killed rank leaves nothing behind, no resource tracker is ever
started, and the fault plan's ``message-corrupt`` still flips frames.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro import faults, obs
from repro.cases import poisson2d_case
from repro.comm import compute
from repro.comm.backends import pool
from repro.comm.backends.arena import Arena
from repro.comm.communicator import Communicator, RetryPolicy
from repro.core.driver import solve_case
from repro.distributed.layout import Layout
from repro.factor.ilu0 import ilu0
from repro.resilience import ResilientSolver
from repro.resilience.errors import MessageCorruption

SRC = Path(__file__).resolve().parents[2] / "src"
POLICY = RetryPolicy(max_retries=2, timeout=0.05)


def _events(tracer, name):
    evs = [e for e in tracer.orphan_events if e["name"] == name]
    for span in tracer.spans:
        evs.extend(e for e in span.events if e["name"] == name)
    return sorted(evs, key=lambda e: e["t"])


@pytest.fixture()
def mp_comm():
    comm = Communicator(2, retry_policy=POLICY, backend="multiprocess")
    yield comm
    comm.close()


def _apply_round(comm):
    """One two-rank APPLY round on resident factors: ``(z, the driver's z)``."""
    wc = compute.session(comm)
    layout = Layout.from_sizes([6, 7])
    facs = {rank: ilu0(sp.diags(
        [-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1],
        format="csr")) for rank, n in ((0, 6), (1, 7))}
    keys = {rank: f"arena-{rank}" for rank in facs}
    wc.ensure({rank: compute.load_factor(keys[rank], facs[rank], None) for rank in keys})
    r = np.linspace(-1.0, 2.0, 13)
    z = wc.apply_factors(keys, layout, r)
    want = np.concatenate([facs[rank].solve(r[layout.local_slice(rank)]) for rank in keys])
    return z, want


class TestSlotChecksums:
    @staticmethod
    def _flip_input(monkeypatch, times):
        """Flip a bit of the input slot after its CRC was taken, ``times`` times."""
        orig, flips = Arena.put, []

        def put(self, values):
            orig(self, values)
            if len(flips) < times:
                flips.append(1)
                self.inp.view(np.uint8)[3] ^= 0x10

        monkeypatch.setattr(Arena, "put", put)

    def test_a_flipped_input_byte_is_retried(self, mp_comm, monkeypatch):
        self._flip_input(monkeypatch, times=1)
        with obs.tracing() as tracer:
            z, want = _apply_round(mp_comm)
        assert z.tobytes() == want.tobytes()
        assert mp_comm.comm_stats.checksum_failures == 1
        assert mp_comm.comm_stats.retries == 1
        (retry,) = _events(tracer, "resilience.comm.retry")
        assert retry["attrs"]["reason"] == "checksum"
        assert retry["attrs"]["nak"] == "slot-checksum"
        assert retry["attrs"]["op"] == "apply"

    def test_a_flip_on_every_attempt_raises_message_corruption(self, mp_comm, monkeypatch):
        self._flip_input(monkeypatch, times=10**6)
        with pytest.raises(MessageCorruption, match="apply"):
            _apply_round(mp_comm)
        attempts = POLICY.max_retries + 1
        # both ranks' edges fail every attempt, like a frame garbled each time
        assert mp_comm.comm_stats.checksum_failures == 2 * attempts
        assert mp_comm.backend.damaged  # a round that gave up: never pooled

    def test_a_flipped_output_byte_is_retried(self, mp_comm, monkeypatch):
        orig, flips = Arena.take, []

        def take(self, slot, n, want, what):
            if what == "output" and not flips:
                flips.append(1)
                slot.view(np.uint8)[0] ^= 0x01
            return orig(self, slot, n, want, what)

        monkeypatch.setattr(Arena, "take", take)
        z, want = _apply_round(mp_comm)
        assert z.tobytes() == want.tobytes()
        assert mp_comm.comm_stats.checksum_failures == 1


class TestRankDeath:
    def test_sigkill_mid_solve_leaves_nothing_and_recovery_builds_new_arenas(self):
        case = poisson2d_case(12)
        shm = set(os.listdir("/dev/shm"))
        plan = faults.FaultPlan(faults.FaultSpec("proc-kill", rank=2, start=6))
        with obs.tracing() as tracer, faults.inject(plan):
            res = ResilientSolver().solve(
                case, precond="block2", nparts=3, backend="multiprocess",
            )
        assert res.recovered and res.outcome.status == "converged"
        arenas = [e["attrs"] for e in _events(tracer, "comm.backend.arena")]
        # the three-rank world mapped arenas, then the absorbed two-rank one
        assert {a["rank"] for a in arenas} == {0, 1, 2}
        assert [a["rank"] for a in arenas].count(0) >= 2
        assert pool.idle_sizes() == []  # neither world was used without the plan
        assert set(os.listdir("/dev/shm")) == shm


def test_no_resource_tracker_and_no_named_segment():
    """A multiprocess solve starts no ``multiprocessing`` resource tracker."""
    code = (
        "from multiprocessing import resource_tracker\n"
        "from repro.cases import poisson2d_case\n"
        "from repro.core.driver import solve_case\n"
        "out = solve_case(poisson2d_case(8), 'block1', nparts=2, backend='multiprocess')\n"
        "assert out.status == 'converged'\n"
        "print(resource_tracker._resource_tracker._pid)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    shm = set(os.listdir("/dev/shm"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "None"
    assert set(os.listdir("/dev/shm")) == shm


def test_message_corrupt_flips_frames_not_slots():
    """The ``message-corrupt`` injection still acts on a frame on the pipe
    (Schur 1's ghost-exchange DATA frames here), never on an arena slot:
    every retry is a DATA edge's, and the answer keeps its bits."""
    case = poisson2d_case(12)
    ref = solve_case(case, "schur1", nparts=2)
    plan = faults.FaultPlan(faults.FaultSpec("message-corrupt", count=2))
    with obs.tracing() as tracer, faults.inject(plan):
        out = solve_case(case, "schur1", nparts=2, backend="multiprocess")
    assert out.x_global.tobytes() == ref.x_global.tobytes()
    assert out.comm_stats["checksum_failures"] == 2
    retries = _events(tracer, "resilience.comm.retry")
    assert len(retries) == 2
    assert all("op" not in e["attrs"] and e["attrs"]["nak"] == "checksum" for e in retries)
