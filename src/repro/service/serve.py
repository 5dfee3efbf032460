"""``repro serve`` — the solve service as a process.

Reads jobs (JSON lines of :class:`~repro.service.job.JobSpec` fields, or a
synthetic ``--gen`` workload), runs them through a :class:`SolveService`,
and reports one JSON line per job with its terminal typed status.

Signals: SIGTERM / SIGINT trigger **graceful drain** — admission closes,
queued jobs shed, running jobs checkpoint at their next chunk boundary,
and a ``repro.service.drain.v1`` manifest lands in the spool directory; a
successor invocation picks the work back up with ``--resume``.  A drained
exit is exit code **0**: job failures are *data* (in the result lines),
not a process error.

``--chaos`` composes the deterministic fault injectors of
:mod:`repro.faults` (e.g. ``proc-kill,straggler,message-corrupt``) against
the live service — the acceptance bar is that every job still ends in a
terminal typed status.

This module lives inside ``repro.service`` so lint rule RPR009 (explicit
timeouts on every blocking call) covers the process wrapper too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import threading

from repro import faults
from repro.service.admission import TenantPolicy
from repro.service.job import JobSpec
from repro.service.service import ServiceConfig, SolveService
from repro.service.workload import synthetic_jobs


def add_serve_arguments(serve: argparse.ArgumentParser) -> None:
    """Register the ``serve`` subcommand's arguments (called by the CLI)."""
    src = serve.add_argument_group("job sources")
    src.add_argument("--jobs", default=None, metavar="PATH",
                     help="JSON-lines job specs ('-' = stdin)")
    src.add_argument("--gen", type=int, default=0, metavar="N",
                     help="also submit N synthetic jobs")
    src.add_argument("--resume", default=None, metavar="MANIFEST",
                     help="re-submit the jobs of a drain manifest "
                     "(checkpointed jobs continue from their snapshot)")
    wl = serve.add_argument_group("synthetic workload shape")
    wl.add_argument("--case", default="tc1")
    wl.add_argument("--size", type=int, default=13)
    wl.add_argument("--nparts", type=int, default=2)
    wl.add_argument("--precond", default="schur1")
    wl.add_argument("--rtol", type=float, default=1e-6)
    wl.add_argument("--maxiter", type=int, default=400)
    wl.add_argument("--deadline", type=float, default=None, metavar="S",
                    help="per-job end-to-end deadline in seconds")
    svc = serve.add_argument_group("service")
    svc.add_argument("--workers", type=int, default=2)
    svc.add_argument("--max-queue", type=int, default=16,
                     help="per-tenant queue bound")
    svc.add_argument("--rate", type=float, default=None,
                     help="per-tenant token-bucket rate (jobs/s)")
    svc.add_argument("--burst", type=int, default=8,
                     help="token-bucket burst capacity")
    svc.add_argument("--max-total", type=int, default=64,
                     help="global queued-job ceiling")
    svc.add_argument("--spool", default=None, metavar="DIR",
                     help="spool directory (checkpoints + drain manifest); "
                     "default: a private temp dir")
    svc.add_argument("--drain-timeout", type=float, default=30.0)
    svc.add_argument("--linger", type=float, default=0.0, metavar="S",
                     help="stay alive S seconds after the last job "
                     "finishes (drain-on-signal testing)")
    out = serve.add_argument_group("output")
    out.add_argument("--out", default=None, metavar="PATH",
                     help="write result JSON lines here (default stdout)")
    chaos = serve.add_argument_group("chaos")
    chaos.add_argument("--chaos", default=None, metavar="KINDS",
                       help="comma-separated fault kinds to inject against "
                       "the live service (repro.faults)")
    chaos.add_argument("--chaos-count", type=int, default=1)
    chaos.add_argument("--chaos-start", type=int, default=4)
    chaos.add_argument("--chaos-rank", type=int, default=None)
    chaos.add_argument("--chaos-seed", type=int, default=0)


def _load_specs(args: argparse.Namespace) -> list[JobSpec]:
    specs: list[JobSpec] = []
    if args.jobs is not None:
        stream = sys.stdin if args.jobs == "-" else open(args.jobs)
        with contextlib.nullcontext(stream) if args.jobs == "-" else stream:
            for line in stream:
                line = line.strip()
                if line:
                    specs.append(JobSpec.from_dict(json.loads(line)))
    if args.gen:
        specs.extend(synthetic_jobs(
            args.gen, case=args.case, size=args.size, nparts=args.nparts,
            precond=args.precond, rtol=args.rtol, maxiter=args.maxiter,
            deadline_s=args.deadline, backend=args.backend,
        ))
    return specs


def _chaos_plan(args: argparse.Namespace) -> faults.FaultPlan | None:
    if not args.chaos:
        return None
    specs = []
    for kind in (k.strip() for k in args.chaos.split(",")):
        if not kind:
            continue
        kind = kind.replace("_", "-")
        rank = args.chaos_rank
        if rank is None and kind in ("rank-dead", "proc-kill", "proc-hang"):
            rank = args.nparts - 1
        specs.append(faults.FaultSpec(
            kind=kind, count=args.chaos_count, start=args.chaos_start,
            rank=rank,
        ))
    return faults.FaultPlan(specs, seed=args.chaos_seed) if specs else None


def cmd_serve(args: argparse.Namespace) -> int:
    config = ServiceConfig(
        workers=args.workers,
        max_total_queue=args.max_total,
        default_policy=TenantPolicy(
            max_queue=args.max_queue, rate=args.rate, burst=args.burst,
        ),
        drain_timeout_s=args.drain_timeout,
        spool_dir=args.spool,
    )
    service = SolveService(config)

    interrupted = threading.Event()

    def _on_signal(signum, frame):  # pragma: no cover - signal path is
        # exercised end-to-end by the CLI drain tests
        interrupted.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    plan = _chaos_plan(args)
    service.start()
    print(f"service: {config.workers} worker(s), spool {service.spool_dir}",
          file=sys.stderr)

    submitted = 0
    overloaded = 0
    with faults.inject(plan) if plan else contextlib.nullcontext():
        if args.resume:
            resumed = service.resume(args.resume)
            submitted += len(resumed)
            print(f"resumed {len(resumed)} job(s) from {args.resume}",
                  file=sys.stderr)
        for spec in _load_specs(args):
            try:
                service.submit(spec)
                submitted += 1
            except Exception as exc:
                overloaded += 1
                print(f"shed at admission: {exc}", file=sys.stderr)

        # serve until every job is terminal, then linger (if asked) so an
        # operator signal can exercise the drain path
        lingered = 0.0
        while not interrupted.is_set():
            if service.wait_all(timeout=0.25):
                if lingered >= args.linger:
                    break
                interrupted.wait(timeout=0.25)
                lingered += 0.25

        manifest = service.drain(timeout=args.drain_timeout)

    if plan is not None and plan.injected:
        summary = ", ".join(f"{k} x{v}" for k, v in plan.summary().items())
        print(f"chaos: {len(plan.injected)} fault(s) fired ({summary})",
              file=sys.stderr)

    records = service.all_jobs()
    lines = [json.dumps(r.to_dict()) for r in records]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        print(f"results written to {args.out}", file=sys.stderr)
    else:
        for line in lines:
            print(line)

    stats = service.stats()
    print("workers: " + ", ".join(
        "{worker} pid {pid} {state}, {chunks} chunk(s), {respawns} respawn(s), "
        "maxrss {maxrss_kb} KiB".format(**w) for w in stats["workers"]),
        file=sys.stderr)
    resumable = sum(1 for j in manifest["jobs"] if j["resumable"])
    print(
        f"served {submitted} job(s), {overloaded} shed at admission; "
        + ", ".join(f"{k}={v}" for k, v in sorted(stats["by_status"].items()))
        + (f"; drained with {resumable} resumable "
           f"(manifest {service.spool_dir / 'drain.json'})"
           if interrupted.is_set() else ""),
        file=sys.stderr,
    )
    # a drained exit is a *clean* exit — failures are data, not a crash
    return 0
