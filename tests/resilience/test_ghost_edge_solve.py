"""Per-attempt delivery faults on ghost edges, pinned at the solve level.

Schur 1 on tc1 (n = 17, P = 2) exchanges interface values at every inner
step, so each ``message-*`` / ``straggler`` spec below fires on ghost-exchange
edges of the delivery round.  The expected values — fault records, comm
stats, retry events, ledger counts and solution digests — were taken when
each ghost transfer was still framed, bit-flipped and validated by the
driver itself; the plan's per-attempt fate must reproduce them exactly.
Only the retry events changed: a corrupt attempt no longer reports the
CRCs (``nak``, ``expected``, ``got``) of a frame the driver garbled.
"""

import hashlib

from repro import faults, obs
from repro.cases import build_case
from repro.core.driver import solve_case
from repro.perfmodel.costs import COUNT_FIELDS
from repro.resilience import ResilientSolver

#: sha256 of the schur1 solution bytes, clean or with every transfer delivered
SCHUR1_X = "ab0adf874aed85858ae97f49eef4290718b4ab752ece8c2acd4c6c182ecb73a8"
#: sha256 of block2's solution after the chain falls back to it
BLOCK2_X = "0dcaf36f73c1db63c3eaa1f2fb959667cdf59b0e5353237fbfedf64cd295cbc4"

#: the fault-free solve ledger of the run
LEDGER = {
    "crit_flops": 310580.0, "crit_msgs": 84.0, "crit_bytes": 16800.0,
    "allreduces": 132, "allreduce_bytes": 1056.0, "total_flops": 510793.0,
    "total_msgs": 168.0, "total_bytes": 33600.0, "phases": 292,
    "delay_seconds": 0.0,
}


def _stats(**moved):
    return {"messages": 70, "retries": 0, "timeouts": 0, "checksum_failures": 0,
            "rank_dead": 0, "straggler_waits": 0, **moved}


def _retries(tracer):
    evs = [e for e in tracer.orphan_events if e["name"] == "resilience.comm.retry"]
    for s in tracer.spans:
        evs.extend(e for e in s.events if e["name"] == "resilience.comm.retry")
    return [e["attrs"] for e in evs]


def _digest(x):
    return hashlib.sha256(x.tobytes()).hexdigest()


def _solve(spec):
    plan = faults.FaultPlan(spec)
    with obs.tracing() as tracer, faults.inject(plan):
        out = solve_case(build_case("tc1", 17), precond="schur1", nparts=2)
    ledger = {f: getattr(out.solve_ledger, f) for f in COUNT_FIELDS}
    return plan, out, ledger, _retries(tracer)


def test_dropped_ghost_attempts_cost_two_windows():
    plan, out, ledger, retries = _solve(faults.FaultSpec("message-drop", count=2))
    assert plan.injected == [
        {"kind": "message-drop", "scope": "schur1", "src": 1, "dst": 0,
         "attempt": attempt}
        for attempt in (0, 1)
    ]
    assert out.comm_stats == _stats(retries=2, timeouts=2)
    assert retries == [
        {"src": 1, "dst": 0, "seq": 0, "attempt": attempt, "reason": "timeout",
         "backend": "inprocess"}
        for attempt in (0, 1)
    ]
    # two retransmissions of the 1->0 transfer, one phase, two 3 ms windows
    assert ledger == {**LEDGER, "crit_msgs": 86.0, "crit_bytes": 17184.0,
                      "total_msgs": 172.0, "total_bytes": 34368.0,
                      "phases": 293, "delay_seconds": 0.006}
    assert (out.status, out.iterations) == ("converged", 5)
    assert _digest(out.x_global) == SCHUR1_X


def test_late_ghost_transfers_charge_only_delay():
    plan, out, ledger, retries = _solve(
        faults.FaultSpec("straggler", count=-1, rank=1))
    assert plan.injected == [
        {"kind": "straggler", "scope": "schur1", "src": 1, "dst": 0,
         "delay": 0.005}
    ] * 35
    assert out.comm_stats == _stats(straggler_waits=35)
    assert retries == []
    assert ledger == {**LEDGER, "delay_seconds": 0.17500000000000007}
    assert (out.status, out.iterations) == ("converged", 5)
    assert _digest(out.x_global) == SCHUR1_X


def test_corrupted_ghost_edge_exhausts_its_budget_and_block2_recovers():
    plan = faults.FaultPlan(faults.FaultSpec("message-corrupt", count=-1))
    with obs.tracing() as tracer, faults.inject(plan):
        res = ResilientSolver().solve(build_case("tc1", 17), precond="schur1",
                                      nparts=2)
    assert plan.injected == [
        {"kind": "message-corrupt", "scope": scope, "src": 1, "dst": 0,
         "attempt": attempt}
        for scope in ("schur1", "schur1", "schur2") for attempt in (0, 1, 2, 3)
    ]
    give_up = ("transfer 1->0 failed checksum validation 4 times "
               "(attempts=4, dst=0, seq=0, src=1)")
    assert [(a.kind, a.precond, a.status, a.iterations, a.fault)
            for a in res.attempts] == [
        ("primary", "schur1", "diverged", 0, give_up),
        ("retry", "schur1", "diverged", 0, give_up),
        ("fallback", "schur2", "diverged", 0, give_up),
        ("fallback", "block2", "converged", 19, None),
    ]
    for attempt in res.attempts[:3]:
        assert type(attempt.error).__name__ == "MessageCorruption"
        assert attempt.error.context == {"src": 1, "dst": 0, "seq": 0, "attempts": 4}
    # no checksum of the driver's own bytes rides on the event
    assert _retries(tracer) == [
        {"src": 1, "dst": 0, "seq": 0, "attempt": attempt, "reason": "checksum",
         "backend": "inprocess"}
        for attempt in (0, 1, 2, 3)
    ] * 3
    out = res.outcome
    assert out.comm_stats == _stats(messages=0)
    assert out.solve_ledger.delay_seconds == 0.0
    assert _digest(out.x_global) == BLOCK2_X
