"""Run one workload and turn what happened into the named metrics.

``measure_untraced`` only calls the workload's entry points and yields the
end-to-end metrics, twice over: the ``quiet_*`` timings that BENCHMARK.json
gates (see ``quiet_cycle``) and the ``core.*`` statistics over every op.  ``measure_traced`` runs each cycle twice — through the
entry points, then through the explicit span-recording pipeline — checks the
two agree, and yields the per-layer metrics.  Every per-layer number is *per
cycle* (one pass over the workload's op kinds): times are summed over every
cycle the run made and divided by their number, exact counts are averaged over
the ``min_cycles`` cycles that always run.
"""

from __future__ import annotations

import os
import resource
import statistics
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro import obs, solve_case
from repro.distributed.matrix import distribute_matrix
from repro.distributed.partition_map import PartitionMap
from repro.factor import cache as factor_cache
from repro.factor import ilu0, ilut
from repro.graph import edge_cut, partition_sizes

from checks import check_equivalent
from pipeline import Solved
from workloads import Op, Workload

SWEEP_REPEATS = 200  # kernels.sweep_us: triangular sweeps timed back to back

END_TO_END = {
    # name: (unit, better)
    "setup_s": ("s", "lower"),
    "quiet_solves_per_s": ("1/s", "higher"),
    "quiet_op_p50_s": ("s", "lower"),
    "quiet_op_p90_s": ("s", "lower"),
    "ok_frac": ("ratio", "higher"),
    "outer_iterations": ("count", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    # name: (unit, better)
    "cases.build_s": ("s", "lower"),
    "cases.dofs": ("count", "lower"),
    "cases.nnz": ("count", "lower"),
    "graph.partition_s": ("s", "lower"),
    "graph.partition_calls": ("count", "lower"),
    "graph.edge_cut": ("count", "lower"),
    "graph.imbalance": ("ratio", "lower"),
    "distributed.map_s": ("s", "lower"),
    "distributed.distribute_s": ("s", "lower"),
    "distributed.interface_dofs": ("count", "lower"),
    "distributed.matvec_s": ("s", "lower"),
    "distributed.matvec_calls": ("count", "lower"),
    "precond.setup_s": ("s", "lower"),
    "precond.setup_flops": ("flops", "lower"),
    "precond.apply_s": ("s", "lower"),
    "precond.apply_calls": ("count", "lower"),
    "factor.ilut_s": ("s", "lower"),
    "factor.ilu0_s": ("s", "lower"),
    "factor.fill_nnz": ("count", "lower"),
    "factor.cache_hits": ("count", "higher"),
    "factor.cache_misses": ("count", "lower"),
    "kernels.sweep_us": ("us/call", "lower"),
    "krylov.solve_s": ("s", "lower"),
    "krylov.iterations": ("count", "lower"),
    "krylov.s_per_iter": ("s", "lower"),
    "krylov.orth_s": ("s", "lower"),
    "krylov.dot_calls": ("count", "lower"),
    "krylov.self_s": ("s", "lower"),
    "comm.messages": ("count", "lower"),
    "comm.bytes": ("bytes", "lower"),
    "comm.allreduces": ("count", "lower"),
    "comm.retries": ("count", "lower"),
    "comm.timeouts": ("count", "lower"),
    "comm.spawn_s": ("s", "lower"),
    "comm.close_s": ("s", "lower"),
    "comm.driver_cpu_s": ("s", "lower"),
    "comm.worker_cpu_s": ("s", "lower"),
    "comm.wait_s": ("s", "lower"),
    "comm.mp_over_inprocess": ("ratio", "lower"),
    "perfmodel.sim_s": ("modelled_s", "lower"),
    "service.start_s": ("s", "lower"),
    "service.drain_s": ("s", "lower"),
    "service.submit_us": ("us", "lower"),
    "service.queue_wait_p50_s": ("s", "lower"),
    "service.run_p50_s": ("s", "lower"),
    "service.run_p90_s": ("s", "lower"),
    "service.worker_util": ("ratio", "higher"),
    "service.shed": ("count", "lower"),
    "service.retries": ("count", "lower"),
    "service.degraded": ("count", "lower"),
    "checkpoint.spool_bytes": ("bytes", "lower"),
    "core.solves_per_s": ("1/s", "higher"),
    "core.op_p50_s": ("s", "lower"),
    "core.op_p90_s": ("s", "lower"),
    "core.pipeline_gap_frac": ("ratio", "lower"),
    "obs.spans_per_solve": ("count", "lower"),
    "host.calib_s": ("s", "lower"),
    "host.cores": ("count", "higher"),
    "host.unpinned_over_pinned": ("ratio", "lower"),
}


@dataclass
class Record:
    op: Op
    solved: Solved
    fails: list[str]
    end_t: float = 0.0   # perf_counter when the op (and its check) completed


def _raised(exc: Exception) -> Solved:
    traceback.print_exc()
    return Solved(x=None, iterations=0, status="raised",
                  error=f"{type(exc).__name__}: {exc}")


def execute(w: Workload, first: int, should_stop) -> list[Record]:
    """Closed loop: ``w.clients`` threads, each issuing its next op when its
    last one has completed.  ``should_stop(i)`` is asked before op ``i`` is
    handed out.  Returns the records in op order."""
    records: dict[int, Record] = {}
    lock = threading.Lock()
    nxt = first

    def client() -> None:
        nonlocal nxt
        while True:
            with lock:
                if should_stop(nxt):
                    return
                index = nxt
                nxt += 1
            op = w.op(index)
            try:
                solved = w.run(op)
                fails = w.check(op, solved)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                solved = _raised(exc)
                fails = [f"raised {solved.error}"]
            records[index] = Record(op, solved, fails, time.perf_counter())

    if w.clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client) for _ in range(w.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return [records[i] for i in sorted(records)]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def _failures(records: list[Record]) -> list[str]:
    return [f"op {r.op.index} ({r.op.kind}, seed {r.op.seed}): {msg}"
            for r in records for msg in r.fails]


def quiet_cycle(records: list[Record], cycle_len: int) -> list[float]:
    """One wall per position of the cycle: the least any cycle saw there.

    What a cycle costs while the host is quiet.  The build host is a shared
    2-core VM that runs 35-50 % slower whenever a neighbour is busy, for
    seconds or for minutes; statistics over every op of a 15 s run then say
    how busy the neighbour was (their spread between identical runs reached
    44 %, and BENCHMARK.json may declare no bound above 25 %).  A quiet moment need
    only last one op for its position to be measured cleanly.  A slowness of
    the program's own that comes and goes does not show here; it shows in
    ``all_ops``.
    """
    return [min(r.solved.wall for r in records if r.op.index % cycle_len == j)
            for j in range(cycle_len)]


def all_ops(records: list[Record], loop_s: float) -> dict:
    """ISSUE 12's timings: nothing filtered, so host noise is in them."""
    walls = [r.solved.wall for r in records]
    return {
        "core.solves_per_s": sum(1 for r in records if not r.fails) / loop_s,
        "core.op_p50_s": float(np.percentile(walls, 50)),
        "core.op_p90_s": float(np.percentile(walls, 90)),
    }


def measure_untraced(w: Workload, seconds: float, spawned_at: float) -> dict:
    """Set up, run whole cycles for ``seconds`` (at least ``min_cycles``)."""
    w.setup()
    t0 = time.perf_counter()
    setup_s = time.time() - spawned_at
    rss_mb: list[float] = []

    def should_stop(i: int) -> bool:
        if i == w.min_ops and not rss_mb:
            # memory can grow with the op count (a marching solver's does):
            # read it after the fixed cycles, not after however many ops the
            # host had time for
            rss_mb.append(peak_rss_mb())
        return (i % w.cycle_len == 0 and i >= w.min_ops
                and time.perf_counter() - t0 >= seconds)

    records = execute(w, 0, should_stop)
    loop_s = max(r.end_t for r in records) - t0
    w.close()
    ok_frac = sum(1 for r in records if not r.fails) / len(records)
    # the ops still running after another client had stopped met no
    # contention: they are no sample of this workload's quiet cycle (a run of
    # one cycle, as the self-tests make, has no other sample of them)
    alone = w.clients - 1 if len(records) > w.cycle_len else 0
    by_end = sorted(records, key=lambda r: r.end_t)
    quiet = quiet_cycle(by_end[: len(records) - alone], w.cycle_len)
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if r.fails),
        "failures": _failures(records),
        "cycles": len(records) // w.cycle_len,
        "loop_s": loop_s,
        "metrics": {
            "setup_s": setup_s,
            # closed loop: each client always has one op in flight
            "quiet_solves_per_s": ok_frac * w.clients * w.cycle_len / sum(quiet),
            "quiet_op_p50_s": float(np.percentile(quiet, 50)),
            "quiet_op_p90_s": float(np.percentile(quiet, 90)),
            "ok_frac": ok_frac,
            "outer_iterations": sum(r.solved.iterations for r in records[: w.min_ops]),
            "peak_rss_mb": rss_mb[0],
            **all_ops(records, loop_s),
        },
        "ops": [
            {"index": r.op.index, "kind": r.op.kind, "seed": r.op.seed,
             "wall_s": r.solved.wall, "iterations": r.solved.iterations,
             "status": r.solved.status}
            for r in records
        ],
    }


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def probe_layers(w: Workload) -> dict:
    """One-off measurements of layers no op calls on its own."""
    case, nparts, membership, precond = w.probe_args()
    pm = PartitionMap(case.coupling_graph, membership, num_ranks=nparts)
    dmat = distribute_matrix(case.matrix, pm)
    cache = factor_cache.get_cache()
    out = {}
    for name, factor in (("ilu0", ilu0), ("ilut", ilut)):
        cache.clear()
        t0 = time.perf_counter()
        factors = [factor(block) for block in dmat.owned_square]
        out[f"factor.{name}_s"] = time.perf_counter() - t0
    # `factors` holds ILUT now: fill and sweep cost are questions about it
    out["factor.fill_nnz"] = sum(f.nnz for f in factors)
    v = np.linspace(1.0, 2.0, factors[0].n)
    factors[0].solve(v)  # the first call probes the fused path
    t0 = time.perf_counter()
    for _ in range(SWEEP_REPEATS):
        factors[0].solve(v)
    out["kernels.sweep_us"] = (time.perf_counter() - t0) / SWEEP_REPEATS * 1e6
    with obs.tracing() as tracer:
        solve_case(case, precond, nparts=nparts, membership=membership)
    out["obs.spans_per_solve"] = len(tracer.spans)
    return out


def unpinned_over_pinned(w: Workload, first: int, pinned_op_s: float) -> tuple[float, list]:
    """Two more cycles with every core allowed, against the pinned ops.

    Above 1, letting the scheduler spread the process's threads costs time:
    they are interpreter-bound and pass the GIL from core to core.
    """
    os.sched_setaffinity(0, w.home_cores)
    try:
        records = execute(w, first, lambda i: i >= first + 2 * w.cycle_len)
    finally:
        os.sched_setaffinity(0, {min(w.home_cores)})
    return statistics.mean(r.solved.wall for r in records) / pinned_op_s, records


MP_ONLY = ("comm.driver_cpu_s", "comm.worker_cpu_s", "comm.wait_s", "comm.mp_over_inprocess")


def _not_applicable(metric: str) -> str:
    """Why a per-layer metric is null on some workload."""
    if metric in MP_ONLY:
        return "only the multiprocess workload has rank processes and an in-process twin"
    if metric == "host.unpinned_over_pinned":
        return "the workload is not pinned to one core, or the host has only one"
    if metric.startswith("host."):
        return "filled in by run.py, which times the calibration kernel around the child"
    return "this workload does not go through SolveService"


def measure_traced(w: Workload, seconds: float) -> dict:
    """Entry points, then the explicit pipeline, cycle by cycle."""
    w.setup()
    w.setup_traced()
    cache = factor_cache.get_cache()
    entry: list[Record] = []
    explicit: list[Solved] = []
    walls, driver_cpu, worker_cpu, hits, misses = [], [], [], [], []
    equivalence: list[str] = []
    t0 = time.perf_counter()
    while len(walls) < w.p["min_cycles"] or time.perf_counter() - t0 < seconds:
        first = len(entry)
        before = cache.stats()
        start, cpu0, kids0 = time.perf_counter(), time.process_time(), _children_cpu()
        records = execute(w, first, lambda i: i >= first + w.cycle_len)
        walls.append(time.perf_counter() - start)
        driver_cpu.append(time.process_time() - cpu0)
        worker_cpu.append(_children_cpu() - kids0)
        after = cache.stats()
        hits.append(after["hits"] - before["hits"])
        misses.append(after["misses"] - before["misses"])
        entry.extend(records)
        for r in records:
            try:
                solved = w.trace(r.op)
            except Exception as exc:
                solved = _raised(exc)
            explicit.append(solved)
            equivalence += [
                f"op {r.op.index} ({r.op.kind}): {msg}"
                for msg in check_equivalent(r.solved, solved, bitwise=w.bitwise)
            ]
    cycles, fixed = len(walls), w.p["min_cycles"]
    unpinned, probe_records = None, []
    if w.home_cores and len(w.home_cores) > 1:
        unpinned, probe_records = unpinned_over_pinned(
            w, len(entry), statistics.mean(r.solved.wall for r in entry))
    layers = probe_layers(w)
    w.close()

    spans = w.rec.totals_by(lambda op: op)   # by op id; -1 collects set-up

    def per_op(name: str, field: str = "total_s") -> list[float]:
        return [spans[i].get(name, {}).get(field, 0.0) for i in range(len(entry))]

    def span_s(name: str, field: str = "total_s") -> float:
        """What spans of this name add up to, per cycle."""
        return sum(per_op(name, field)) / cycles

    def calls(name: str) -> float:
        return sum(spans[i].get(name, {}).get("calls", 0) for i in range(w.min_ops)) / fixed

    def count(key: str) -> float:
        return sum(s.counts[key] for s in explicit[: w.min_ops] if s.counts) / fixed

    case = w.case
    partitions = {r.op.seed: s.membership
                  for r, s in zip(entry[: w.min_ops], explicit) if s.membership is not None}
    sizes = [partition_sizes(p, w.p["nparts"]) for p in partitions.values()]
    m: dict[str, float | None] = dict.fromkeys(PER_LAYER)
    m.update(layers)
    m.update({
        "cases.build_s": spans[-1].get("cases.build", {}).get("total_s", 0.0),
        "cases.dofs": case.num_dofs,
        "cases.nnz": case.matrix.nnz,
        "graph.partition_s": span_s("graph.partition"),
        "graph.partition_calls": calls("graph.partition"),
        "graph.edge_cut": sum(edge_cut(case.node_graph, p) for p in partitions.values()),
        "graph.imbalance": max(float(s.max() / s.mean()) for s in sizes),
        "distributed.map_s": span_s("distributed.map"),
        "distributed.distribute_s": span_s("distributed.distribute"),
        "distributed.interface_dofs": sum(s.interface_dofs for s in explicit[: w.min_ops]) / fixed,
        "distributed.matvec_s": span_s("distributed.matvec"),
        "distributed.matvec_calls": calls("distributed.matvec"),
        "precond.setup_s": span_s("precond.setup"),
        "precond.setup_flops": count("setup_flops"),
        "precond.apply_s": span_s("precond.apply"),
        "precond.apply_calls": calls("precond.apply"),
        "factor.cache_hits": statistics.median(hits),
        "factor.cache_misses": statistics.median(misses),
        "krylov.solve_s": span_s("krylov.solve"),
        "krylov.iterations": sum(s.iterations for s in explicit[: w.min_ops]) / fixed,
        "krylov.s_per_iter": sum(per_op("krylov.solve"))
        / max(sum(s.iterations for s in explicit), 1),
        # a norm is a dot plus a square root: count the nested dot once
        "krylov.orth_s": span_s("krylov.dot") + span_s("krylov.norm", "self_s"),
        "krylov.dot_calls": calls("krylov.dot"),
        "krylov.self_s": span_s("krylov.solve", "self_s"),
        "comm.messages": count("messages"),
        "comm.bytes": count("bytes"),
        "comm.allreduces": count("allreduces"),
        "comm.retries": count("retries"),
        "comm.timeouts": count("timeouts"),
        "comm.spawn_s": span_s("comm.spawn"),
        "comm.close_s": span_s("comm.close"),
        "perfmodel.sim_s": sum(s.sim_s or 0.0 for s in explicit[: w.min_ops]) / fixed,
        **all_ops(entry, sum(walls)),
        # median over ops: one descheduled op must not decide the verdict
        "core.pipeline_gap_frac": statistics.median(
            (s.wall - r.solved.wall) / r.solved.wall for r, s in zip(entry, explicit)),
        "host.unpinned_over_pinned": unpinned,
    })
    if w.backend == "multiprocess":
        # one driver thread, so its CPU time never exceeds the cycle's wall
        m.update({
            "comm.driver_cpu_s": sum(driver_cpu) / cycles,
            "comm.worker_cpu_s": sum(worker_cpu) / cycles,
            "comm.wait_s": (sum(walls) - sum(driver_cpu)) / cycles,
            "comm.mp_over_inprocess": statistics.median(r.solved.wall for r in entry)
            / statistics.median(per_op("comm.inprocess_twin")),
        })
    m.update(_service_metrics(w, spans[-1], sum(walls)))

    op_wall = span_s("op")
    return {
        "attempted": len(entry),
        "failed": sum(1 for r in entry if r.fails),
        "failures": _failures(entry) + _failures(probe_records) + equivalence,
        "equivalent": not equivalence,
        "cycles": cycles,
        "op_wall_per_cycle_s": op_wall,
        "metrics": m,
        "notes": {name: _not_applicable(name) for name, value in m.items() if value is None},
        "predictions": [
            {"metric": name, "share_of_op_wall": m[name] / op_wall, "low": low,
             "high": high, "holds": low <= m[name] / op_wall <= high}
            for name, low, high in w.predictions
        ],
        "spans": w.rec.to_rows(),
    }


def _service_metrics(w: Workload, setup_spans: dict, entry_wall: float) -> dict:
    """Per-layer numbers of the service, from its own job records."""
    jobs = getattr(w, "jobs", None)
    if not jobs:
        return {}
    records = [record for record, _ in jobs.values()]
    waits = [r.started_t - r.created_t for r in records if r.started_t is not None]
    runs = [r.finished_t - r.started_t for r in records
            if r.started_t is not None and r.finished_t is not None]
    kinds = [a["kind"] for r in records for a in r.attempts]
    return {
        "service.start_s": setup_spans["service.start"]["total_s"],
        "service.drain_s": setup_spans["service.drain"]["total_s"],
        "service.submit_us": statistics.median(s for _, s in jobs.values()) * 1e6,
        "service.queue_wait_p50_s": float(np.percentile(waits, 50)),
        "service.run_p50_s": float(np.percentile(runs, 50)),
        "service.run_p90_s": float(np.percentile(runs, 90)),
        "service.worker_util": sum(runs) / (w.clients * entry_wall),
        "service.shed": w.stats["by_status"].get("shed", 0),
        "service.retries": kinds.count("retry") + kinds.count("rank-recovery"),
        "service.degraded": kinds.count("fallback"),
        "checkpoint.spool_bytes": w.spool_bytes,
    }
