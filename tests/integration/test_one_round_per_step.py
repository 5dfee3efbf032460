"""One worker round per Arnoldi step on a real backend.

A Block 1/2 APPLY round also multiplies the internal rows of the next
product (they read only the rank's own z), and the driver adds the
interface rows, so a multiprocess FGMRES step sends one round, not an
APPLY and then a MATVEC of what it returned.  What stays a MATVEC round is
the initial residual and each restart's true residual.  Everything else is
the in-process solve's, bit for bit: solution, residual history, ledgers.
"""

from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.cases import build_case
from repro.comm.backends import MultiprocessBackend, framing, pool, worker
from repro.comm.backends.arena import Arena
from repro.comm.communicator import Communicator
from repro.core import stages
from repro.core.driver import solve_case
from repro.factor import cache as factor_cache
from repro.perfmodel.costs import COUNT_FIELDS

RESTART = 20


def _events(tracer, name):
    evs = [e for e in tracer.orphan_events if e["name"] == name]
    for span in tracer.spans:
        evs.extend(e for e in span.events if e["name"] == name)
    return sorted(evs, key=lambda e: e["t"])


def _ledger(led):
    return [getattr(led, f) for f in COUNT_FIELDS], led.per_rank_flops.tobytes()


def _count_frames(monkeypatch) -> Counter:
    """Every CMD frame the driver pipes to a rank from now on, by op."""
    sent: Counter = Counter()
    send = MultiprocessBackend._send

    def counting(self, rank, raw):
        frame = framing.decode_frame(raw)
        if frame.kind == framing.CMD:
            sent[worker.OP_NAMES[frame.payload[0]]] += 1
        return send(self, rank, raw)

    monkeypatch.setattr(MultiprocessBackend, "_send", counting)
    return sent


@pytest.mark.parametrize("name, size, nparts, precond, ordering", [
    ("tc1", 101, 2, "block1", "natural"),
    ("tc1", 17, 2, "block2", "rcm"),
    ("tc1", 17, 3, "block1", "natural"),
    ("tc1", 17, 3, "block2", "rcm"),
    ("tc1", 9, 8, "block1", "natural"),
    ("tc1", 9, 8, "block2", "rcm"),
])
def test_one_round_per_arnoldi_step(name, size, nparts, precond, ordering, monkeypatch):
    case = build_case(name, size)
    if nparts == 8:
        # the edge case: a rank with no internal rows multiplies nothing
        subs = stages.distribute(case, nparts).pm.subdomains
        assert min(sd.n_internal for sd in subs) == 0
    params = {"ordering": ordering}
    ref = solve_case(case, precond, nparts=nparts, precond_params=params)
    pool.drain()
    out = solve_case(case, precond, nparts=nparts, precond_params=params,
                     backend="multiprocess")
    assert out.status == ref.status == "converged"
    assert out.x_global.tobytes() == ref.x_global.tobytes()
    assert out.residuals == ref.residuals
    assert _ledger(out.solve_ledger) == _ledger(ref.solve_ledger)
    assert _ledger(out.setup_ledger) == _ledger(ref.setup_ledger)
    # the warm solve (ranks leased from the pool, holding what they were
    # shipped) sends nothing but its rounds: one CMD frame per rank each
    frames = _count_frames(monkeypatch)
    again = solve_case(case, precond, nparts=nparts, precond_params=params,
                       backend="multiprocess")
    assert again.x_global.tobytes() == ref.x_global.tobytes()
    rounds = {op: count / nparts for op, count in frames.items()}
    cycles = -(-out.iterations // RESTART)
    assert rounds == {"apply": out.iterations, "matvec": 1 + cycles}
    if (name, size) == ("tc1", 101):
        assert (out.iterations, rounds["apply"] + rounds["matvec"]) == (157, 166)


def test_traced_solve_runs_the_same_round():
    """Tracing changes no round: the fused step's APPLY round is the
    ``comm.worker.round`` of op ``apply`` inside ``block.local_solves``, and
    ``dist.matvec`` still opens for the driver's interface rows."""
    case = build_case("tc1", 17)
    ref = solve_case(case, "block1", nparts=2)
    with obs.tracing() as tracer:
        out = solve_case(case, "block1", nparts=2, backend="multiprocess")
    assert out.x_global.tobytes() == ref.x_global.tobytes()
    steps = [s for s in tracer.spans if s.name == "block.local_solves"]
    assert len(steps) == out.iterations
    for span in steps:
        (event,) = [e for e in span.events if e["name"] == "comm.worker.round"]
        assert event["attrs"]["op"] == "apply"
    cycles = -(-out.iterations // RESTART)
    matvecs = [s for s in tracer.spans if s.name == "dist.matvec"]
    assert len(matvecs) == out.iterations + 1 + cycles
    ops = [e["attrs"]["op"] for e in _events(tracer, "comm.worker.round")]
    assert ops.count("matvec") == 1 + cycles


def test_a_flipped_fused_output_slot_is_retried(monkeypatch):
    """A bit flipped in a rank's output slot of a fused round fails the
    slot's CRC: the round retries that edge and the solve keeps its bits."""
    case = build_case("tc1", 17)
    ref = solve_case(case, "block1", nparts=2)
    pool.drain()
    orig, takes = Arena.take, []

    def take(self, slot, n, want, what):
        # takes 1-2 are the initial residual's MATVEC, 3-4 the first APPLY
        # round's: 4 is rank 1's output
        if what == "output":
            takes.append(n)
            if len(takes) == 4:
                slot.view(np.uint8)[5] ^= 0x20
        return orig(self, slot, n, want, what)

    monkeypatch.setattr(Arena, "take", take)
    with obs.tracing() as tracer:
        out = solve_case(case, "block1", nparts=2, backend="multiprocess")
    assert out.x_global.tobytes() == ref.x_global.tobytes()
    assert out.residuals == ref.residuals
    assert out.comm_stats["checksum_failures"] == 1
    (retry,) = _events(tracer, "resilience.comm.retry")
    assert retry["attrs"]["op"] == "apply" and retry["attrs"]["nak"] == "slot-checksum"
    # the retried edge's output is z followed by the internal rows
    subs = stages.distribute(case, 2).pm.subdomains
    assert takes[3] == takes[4] == subs[1].n_owned + subs[1].n_internal


def test_a_rank_without_the_row_block_is_shipped_it():
    """The fused round names two keys; a rank that lacks the row block
    refuses naming it, is shipped it, and the round is repeated."""
    case = build_case("tc1", 17)
    dmat = stages.distribute(case, 2)
    factor_cache.get_cache().clear()  # so set-up factors in the ranks
    comm = Communicator(2, backend="multiprocess")
    try:
        precond, _ = stages.set_up("block1", dmat, comm, case)
        step = precond.fused_step()
        v = np.linspace(-1.0, 1.0, dmat.shape[0])
        with obs.tracing() as tracer:
            z, y = step(v)
            step(v)
        rounds = _events(tracer, "comm.worker.round")
        assert [e["attrs"]["op"] for e in rounds] == ["load-matrix", "apply", "apply"]
        assert z.tobytes() == precond.apply(v).tobytes()
        assert y.tobytes() == dmat.matvec(comm, z).tobytes()
    finally:
        comm.close()


def test_a_rank_without_factor_or_row_block_refuses_once():
    """After a set-up whose factors all came from the cache, a fresh world's
    ranks hold nothing: the first fused step finds each rank lacking its
    factor *and* its row block.  Each rank refuses once, naming both; both
    are shipped and the step is repeated, with the in-process bits."""
    case = build_case("tc1", 17)
    dmat = stages.distribute(case, 2)
    inproc, _ = stages.set_up("block1", dmat, Communicator(2), case)
    v = np.linspace(-1.0, 1.0, dmat.shape[0])
    want_z = inproc.apply(v)
    want_y = dmat.matvec(Communicator(2), want_z)
    warm = Communicator(2, backend="multiprocess")
    stages.set_up("block1", dmat, warm, case)  # the ranks' factors, cached
    warm.close()
    pool.drain()
    comm = Communicator(2, backend="multiprocess")
    try:
        hits = factor_cache.stats()["hits"]
        precond, _ = stages.set_up("block1", dmat, comm, case)
        assert factor_cache.stats()["hits"] == hits + 2
        with obs.tracing() as tracer:
            z, y = precond.fused_step()(v)
        rounds = _events(tracer, "comm.worker.round")
        assert sorted(e["attrs"]["op"] for e in rounds[:2]) == ["load-factor", "load-matrix"]
        assert [e["attrs"]["op"] for e in rounds[2:]] == ["apply"]
        assert z.tobytes() == want_z.tobytes()
        assert y.tobytes() == want_y.tobytes()
    finally:
        comm.close()


def test_a_fresh_world_maps_one_arena_per_rank():
    """The first vector op sizes each rank's arena for the whole solve: the
    fused APPLY's ``[z; internal rows]`` fits the arena the initial
    residual's MATVEC made."""
    case = build_case("tc1", 33)
    ref = solve_case(case, "block1", nparts=2)
    pool.drain()
    with obs.tracing() as tracer:
        out = solve_case(case, "block1", nparts=2, backend="multiprocess")
    arenas = _events(tracer, "comm.backend.arena")
    assert sorted(e["attrs"]["rank"] for e in arenas) == [0, 1]
    assert out.x_global.tobytes() == ref.x_global.tobytes()
