"""Command-line interface: ``python -m repro``.

Runs any of the paper's test cases under any preconditioner, a full
paper-style sweep, or a traced run with a per-phase cost breakdown::

    python -m repro solve --case tc1 --precond schur1 --nparts 8
    python -m repro sweep --case tc2 --preconds schur1,block2 --p 2,4,8,16
    python -m repro trace poisson2d --precond schur1 --nparts 8
    python -m repro faults tc1 --kind bad-pivot --precond schur1
    python -m repro lint src/
    python -m repro check-determinism --cases tc1,tc3 --size 17
    python -m repro info

``solve`` and ``trace`` exit nonzero when the final status is anything but
``converged`` and print the classified status; ``faults`` runs a solve under
deterministic fault injection through the resilient fallback chain
(docs/robustness.md); ``lint`` and ``check-determinism`` drive the
correctness tooling of :mod:`repro.analysis` (docs/static-analysis.md).

Sizes default to laptop scale; ``--size`` overrides the case's resolution
parameter (grid points per side, or 1/h for tc3).  Cases are addressable by
paper key (``tc1``) or descriptive alias (``poisson2d``).
"""

from __future__ import annotations

import argparse
import sys

from repro import faults, obs
from repro.analysis import sanitize
from repro.cases import CASE_BUILDERS, build_case
from repro.cases.base import PARTITION_SCHEMES
from repro.comm.backends import BACKEND_NAMES
from repro.resilience.errors import SolverFault
from repro.factor import cache as factor_cache
from repro.core.driver import PRECONDITIONER_NAMES, solve_case
from repro.core.experiment import run_sweep
from repro.perfmodel.machine import machine_by_name
from repro.resilience import ResilientSolver
from repro.service.serve import add_serve_arguments, cmd_serve


def _build_case(key: str, size: int | None):
    try:
        return build_case(key, size)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t]
    except ValueError:
        raise SystemExit(f"expected a comma-separated integer list, got {text!r}")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel algebraic preconditioners (Cai & Sosonkina, IPPS 2003)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cache_opts = argparse.ArgumentParser(add_help=False)
    cache_opts.add_argument(
        "--no-factor-cache", action="store_true",
        help="disable the content-addressed factorization cache "
        "(docs/performance.md); every ILU setup recomputes from scratch",
    )

    backend_opts = argparse.ArgumentParser(add_help=False)
    backend_opts.add_argument(
        "--backend", choices=BACKEND_NAMES, default=None,
        help="execution backend: inprocess (simulated ranks, default) or "
        "multiprocess (ranks as supervised OS processes — "
        "docs/robustness.md)",
    )

    solve = sub.add_parser("solve", parents=[cache_opts, backend_opts],
                           help="run one case under one preconditioner")
    solve.add_argument("--case", default="tc1", help=f"one of {sorted(CASE_BUILDERS)}")
    solve.add_argument("--precond", default="schur1",
                       help=f"one of {PRECONDITIONER_NAMES}")
    solve.add_argument("--nparts", type=int, default=4)
    solve.add_argument("--size", type=int, default=None, help="resolution override")
    solve.add_argument("--seed", type=int, default=0, help="partitioning seed")
    solve.add_argument("--scheme", choices=PARTITION_SCHEMES, default="general")
    solve.add_argument("--machine", default="linux-cluster")
    solve.add_argument("--rtol", type=float, default=1e-6)
    solve.add_argument("--maxiter", type=int, default=500)
    solve.add_argument("--resilient", action="store_true",
                       help="wrap the solve in the retry/fallback chain "
                       "(docs/robustness.md)")
    solve.add_argument("--checkpoint-dir", default=None,
                       help="snapshot the FGMRES iterate into this directory "
                       "(repro.ckpt.v1) at the end of each restart cycle the "
                       "solve does not converge in")
    solve.add_argument("--checkpoint-every", type=int, default=1,
                       help="restart cycles between snapshots")
    solve.add_argument("--restore", action="store_true",
                       help="seed x0 from the newest intact checkpoint in "
                       "--checkpoint-dir")
    solve.add_argument("--sanitize", nargs="?", const="fp", default=None,
                       metavar="MODES",
                       help="arm runtime sanitizers for this solve (comma "
                       "list of fp,race; bare flag means fp) — NaN/Inf "
                       "trap as typed faults, races in shared setup state "
                       "abort (docs/static-analysis.md)")

    sweep = sub.add_parser("sweep", parents=[cache_opts],
                          help="run a paper-style table")
    sweep.add_argument("--case", default="tc1")
    sweep.add_argument("--preconds", default="schur1,schur2,block1,block2",
                       help="comma-separated preconditioner names")
    sweep.add_argument("--p", default="2,4,8,16", help="comma-separated P values")
    sweep.add_argument("--size", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--scheme", choices=PARTITION_SCHEMES, default="general")
    sweep.add_argument("--machine", default="linux-cluster")
    sweep.add_argument("--maxiter", type=int, default=500)

    trace = sub.add_parser(
        "trace",
        parents=[cache_opts, backend_opts],
        help="run one case under tracing; print the per-phase breakdown "
        "and write a machine-readable trace file",
    )
    trace.add_argument("case", help=f"one of {sorted(CASE_BUILDERS)} or an alias")
    trace.add_argument("--precond", default="schur1",
                       help=f"one of {PRECONDITIONER_NAMES}")
    trace.add_argument("--nparts", type=int, default=4)
    trace.add_argument("--size", type=int, default=None, help="resolution override")
    trace.add_argument("--seed", type=int, default=0, help="partitioning seed")
    trace.add_argument("--scheme", choices=PARTITION_SCHEMES,
                       default="general")
    trace.add_argument("--machine", default="linux-cluster")
    trace.add_argument("--rtol", type=float, default=1e-6)
    trace.add_argument("--maxiter", type=int, default=500)
    trace.add_argument("--out", default=None,
                       help="trace JSON path (default trace_<case>_<precond>_"
                       "p<nparts>.json)")
    trace.add_argument("--csv", default=None,
                       help="also write a flat per-span CSV to this path")
    trace.add_argument("--format", choices=("table", "json"), default="table",
                       help="stdout format: human tables (default) or the "
                       "repro.trace.v1 document as a single JSON object")

    fault = sub.add_parser(
        "faults",
        parents=[cache_opts, backend_opts],
        help="run one case under deterministic fault injection through the "
        "resilient retry/fallback chain",
    )
    fault.add_argument("case", help=f"one of {sorted(CASE_BUILDERS)} or an alias")
    fault.add_argument("--kind", default="bad-pivot", choices=faults.FAULT_KINDS,
                       type=lambda s: s.replace("_", "-"),
                       help="fault class to inject (underscores accepted)")
    fault.add_argument("--count", type=int, default=1,
                       help="how many times the fault fires (-1 = unlimited)")
    fault.add_argument("--start", type=int, default=0,
                       help="matching opportunities to skip before firing")
    fault.add_argument("--target", default=None,
                       help="comma-separated fault scopes (preconditioner "
                       "short names); default: fault everywhere")
    fault.add_argument("--value", type=float, default=1e-300,
                       help="payload for tiny-pivot / ghost-scale")
    fault.add_argument("--rank", type=int, default=None,
                       help="target rank for rank-dead / proc-kill / "
                       "proc-hang / message faults (rank-targeting kinds "
                       "default to nparts - 1)")
    fault.add_argument("--delay", type=float, default=5e-3,
                       help="per-exchange straggler delay in seconds")
    fault.add_argument("--checkpoint-dir", default=None,
                       help="checkpoint the solve so rank-dead recovery "
                       "resumes from the newest intact snapshot")
    fault.add_argument("--fault-seed", type=int, default=0)
    fault.add_argument("--precond", default="schur1",
                       help=f"one of {PRECONDITIONER_NAMES}")
    fault.add_argument("--nparts", type=int, default=4)
    fault.add_argument("--size", type=int, default=None, help="resolution override")
    fault.add_argument("--seed", type=int, default=0, help="partitioning seed")
    fault.add_argument("--scheme", choices=PARTITION_SCHEMES,
                       default="general")
    fault.add_argument("--rtol", type=float, default=1e-6)
    fault.add_argument("--maxiter", type=int, default=500)
    fault.add_argument("--out", default=None,
                       help="also write a JSON trace of the faulted run")

    lint = sub.add_parser(
        "lint",
        help="run the repo's RPRxxx AST lint rules (docs/static-analysis.md)",
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories to lint (default src/repro)")
    lint.add_argument("--json", default=None, metavar="PATH",
                      help="write a repro.lint.v1 JSON report")

    proto = sub.add_parser(
        "verify-protocol",
        help="protocol/concurrency static analysis: wire contracts "
        "(RPR010), state-machine model check (RPR011), lock-order and "
        "blocking-under-lock (RPR012)",
    )
    proto.add_argument("root", nargs="?", default=None,
                       help="package root to analyse (the directory holding "
                       "comm/, service/, ...; default: the installed "
                       "repro package)")
    proto.add_argument("--json", default=None, metavar="PATH",
                       help="write a repro.proto.v1 JSON report")

    det = sub.add_parser(
        "check-determinism",
        help="bitwise-compare solves across kernel tiers, repeats, and "
        "execution backends (repro.determinism.v2)",
    )
    det.add_argument("--cases", default="tc1,tc3",
                     help="comma-separated case keys/aliases")
    det.add_argument("--size", type=int, default=17,
                     help="resolution override applied to every case")
    det.add_argument("--nparts", type=int, default=4)
    det.add_argument("--tiers", default=None,
                     help="comma-separated kernel tiers (default: all "
                     "available in this process)")
    det.add_argument("--check", default=None,
                     help="comma-separated check kinds to run (default: all); "
                     "e.g. --check backend compares inprocess vs "
                     "multiprocess execution bitwise")
    det.add_argument("--precond", default="schur1",
                     help=f"one of {PRECONDITIONER_NAMES}")
    det.add_argument("--seed", type=int, default=0)
    det.add_argument("--rtol", type=float, default=1e-6)
    det.add_argument("--maxiter", type=int, default=200)
    det.add_argument("--json", default=None, metavar="PATH",
                     help="write the repro.determinism.v2 report here")

    serve = sub.add_parser(
        "serve",
        parents=[cache_opts, backend_opts],
        help="run the multi-tenant solve service: admission control, "
        "deadlines, circuit breakers, graceful SIGTERM drain "
        "(docs/service.md)",
    )
    add_serve_arguments(serve)

    sub.add_parser("info", help="list available cases, preconditioners, machines")
    return parser


def _status_text(status: str) -> str:
    return "converged" if status == "converged" else f"NOT CONVERGED [{status}]"


def cmd_solve(args: argparse.Namespace) -> int:
    case = _build_case(args.case, args.size)
    machine = machine_by_name(args.machine)
    kwargs = dict(
        precond=args.precond,
        nparts=args.nparts,
        seed=args.seed,
        scheme=args.scheme,
        rtol=args.rtol,
        maxiter=args.maxiter,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        restore=args.restore,
        backend=args.backend,
    )
    if args.restore and args.checkpoint_dir is None:
        raise SystemExit("--restore requires --checkpoint-dir")
    try:
        # a partition the inputs do not allow (nparts above the vertex count,
        # box on an unstructured grid) is a usage error, not a traceback;
        # remembered by the case, so the solve below does not partition again
        case.membership(args.nparts, seed=args.seed, scheme=args.scheme)
    except ValueError as exc:
        raise SystemExit(str(exc))
    modes = [m for m in (args.sanitize or "").split(",") if m]
    try:
        with sanitize.sanitizing(*modes):
            if args.resilient:
                res = ResilientSolver().solve(case, **kwargs)
                _print_attempts(res)
                out = res.outcome
                if out is None:
                    print(f"  all attempts failed; final status: {res.status}")
                    return 1
            else:
                out = solve_case(case, **kwargs)
    except (SolverFault, sanitize.RaceDetected) as exc:
        if not modes:
            raise
        # the sanitizers speak the typed taxonomy; report the classification
        # instead of a traceback so scripted callers can branch on it
        status = getattr(exc, "status", "race")
        print(f"sanitizer trapped a fault [{status}]: {exc}")
        return 3
    print(f"{case.title}: {case.num_dofs} unknowns, P={args.nparts}, "
          f"{out.precond}, {args.scheme} partitioning")
    # guarded: a zero initial residual (x0 already exact) must not divide
    reduction = (f"{out.residuals[-1] / out.residuals[0]:.2e}"
                 if out.residuals and out.residuals[0] > 0 else "n/a")
    print(f"  {_status_text(out.status)} in {out.iterations} fgmres "
          f"iterations (reduction {reduction})")
    print(f"  simulated time on {machine.name}: {out.sim_time(machine):.3f}s "
          f"(setup {machine.time(out.setup_ledger):.3f}s)")
    if out.error is not None:
        print(f"  max error vs exact solution: {out.error:.3e}")
    return 0 if out.converged else 1


def _print_attempts(res) -> None:
    if len(res.attempts) > 1:
        for a in res.attempts:
            detail = a.fault or f"{a.status} after {a.iterations} iterations"
            print(f"  [{a.kind}] {a.precond}: {detail}")


def cmd_sweep(args: argparse.Namespace) -> int:
    case = _build_case(args.case, args.size)
    machine = machine_by_name(args.machine)
    sweep = run_sweep(
        case,
        [name for name in args.preconds.split(",") if name],
        _parse_int_list(args.p),
        seed=args.seed,
        scheme=args.scheme,
        maxiter=args.maxiter,
    )
    print(sweep.table(machine))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    case = _build_case(args.case, args.size)
    machine = machine_by_name(args.machine)
    with obs.tracing() as tracer:
        out = solve_case(
            case,
            precond=args.precond,
            nparts=args.nparts,
            seed=args.seed,
            scheme=args.scheme,
            rtol=args.rtol,
            maxiter=args.maxiter,
            backend=args.backend,
        )

    # the contract's invariant: span-attributed ledger deltas reproduce the
    # run's total (setup + solve) cost exactly
    totals = out.setup_ledger.counts()
    for key, value in out.solve_ledger.counts().items():
        totals[key] += value
    err = obs.conservation_error(tracer.spans, totals)

    meta = {
        "case": case.key,
        "title": case.title,
        "num_dofs": case.num_dofs,
        "precond": args.precond,
        "precond_title": out.precond,
        "nparts": args.nparts,
        "scheme": args.scheme,
        "seed": args.seed,
        "machine": machine.name,
        "iterations": out.iterations,
        "converged": out.converged,
        "status": out.status,
    }

    if args.format == "json":
        # machine consumers get the repro.trace.v1 document on stdout —
        # nothing else is printed there, so the output is parseable as-is
        import json

        print(json.dumps(obs.trace_to_dict(tracer, meta)))
    else:
        print(f"{case.title}: {case.num_dofs} unknowns, P={args.nparts}, "
              f"{out.precond} — {_status_text(out.status)} in "
              f"{out.iterations} iterations")
        print(obs.format_phase_table(tracer.spans, machine, args.nparts))

        worker_table = obs.format_worker_table(tracer)
        if worker_table:
            # per-rank merge of the rank processes' self-measured command
            # spans (comm.worker.round events): where worker-resident
            # compute actually spent its CPU time, rank by rank
            print(worker_table)

        cs = out.comm_stats
        print(f"comm [{out.backend}]: {cs['messages']} messages, "
              f"{cs['retries']} retries, {cs['straggler_waits']} straggler "
              f"waits, {cs['timeouts']} timeouts, "
              f"{cs['checksum_failures']} checksum failures")

        print(f"ledger conservation: {'OK' if err < 1e-9 else 'FAILED'} "
              f"(max relative error {err:.2e})")

        cstats = factor_cache.stats()
        print(f"factor cache: {cstats['hits']} hits, {cstats['misses']} "
              f"misses, {cstats['bypasses']} bypasses; stacks: "
              f"{cstats['stack_hits']} hits, {cstats['stack_misses']} misses"
              + ("" if cstats["enabled"] else " (disabled)"))

    diag = sys.stderr if args.format == "json" else sys.stdout
    precond_slug = args.precond.replace("+", "_")
    out_path = args.out or f"trace_{args.case}_{precond_slug}_p{args.nparts}.json"
    written = obs.write_json_trace(out_path, tracer, meta)
    print(f"trace written to {written}", file=diag)
    if args.csv:
        print(f"span CSV written to {obs.write_csv_trace(args.csv, tracer)}",
              file=diag)
    if err >= 1e-9:
        return 2
    return 0 if out.converged else 1


def cmd_faults(args: argparse.Namespace) -> int:
    case = _build_case(args.case, args.size)
    rank = args.rank
    if rank is None and args.kind in ("rank-dead", "proc-kill", "proc-hang"):
        rank = args.nparts - 1
    spec = faults.FaultSpec(
        kind=args.kind, count=args.count, start=args.start,
        target=args.target, value=args.value, rank=rank, delay=args.delay,
    )
    plan = faults.FaultPlan(spec, seed=args.fault_seed)
    solver = ResilientSolver()
    kwargs = dict(
        precond=args.precond, nparts=args.nparts, seed=args.seed,
        scheme=args.scheme, rtol=args.rtol, maxiter=args.maxiter,
        backend=args.backend,
    )
    if args.checkpoint_dir is not None:
        kwargs["checkpoint_dir"] = args.checkpoint_dir
    with obs.tracing() as tracer, faults.inject(plan):
        res = solver.solve(case, **kwargs)

    print(f"{case.title}: {case.num_dofs} unknowns, P={args.nparts}, "
          f"primary {args.precond}, fault {args.kind} x{args.count}")
    if plan.injected:
        for rec in plan.injected[:8]:
            where = {k: v for k, v in rec.items() if k != "kind"}
            print(f"  injected {rec['kind']}: {where}")
        if len(plan.injected) > 8:
            by_kind = ", ".join(f"{k} x{v}" for k, v in plan.summary().items())
            print(f"  ... {len(plan.injected)} faults fired in total ({by_kind})")
    else:
        print("  no faults fired (check --target / --start against the run)")
    for a in res.attempts:
        detail = a.fault or f"{a.status} after {a.iterations} iterations"
        print(f"  [{a.kind}] {a.precond}: {detail}")
    verdict = "recovered" if res.recovered else _status_text(res.status)
    print(f"  final: {verdict} via {res.final_precond} "
          f"({len(res.attempts)} attempt(s))")
    if args.out:
        meta = {
            "case": case.key,
            "precond": args.precond,
            "fault": {"kind": args.kind, "count": args.count,
                      "start": args.start, "target": args.target},
            "injected": plan.injected,
            "status": res.status,
            "recovered": res.recovered,
        }
        print(f"trace written to {obs.write_json_trace(args.out, tracer, meta)}")
    return 0 if res.converged else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import lint_paths, write_json_report

    report = lint_paths(args.paths)
    for v in report.violations:
        print(v.format())
    for err in report.parse_errors:
        print(f"parse error: {err}")
    counts = report.counts()
    summary = ", ".join(f"{code} x{n}" for code, n in sorted(counts.items()))
    print(f"{report.files_checked} file(s): {len(report.violations)} violation(s)"
          + (f" ({summary})" if summary else "")
          + (f", {len(report.suppressed)} suppressed by noqa"
             if report.suppressed else ""))
    for entry in report.stale_noqas:
        print(f"stale noqa: {entry['path']}:{entry['line']}: "
              f"{entry['code']} no longer fires on this line — delete it")
    if args.json:
        print(f"report written to {write_json_report(args.json, report)}")
    return 0 if report.clean and not report.parse_errors else 1


def cmd_verify_protocol(args: argparse.Namespace) -> int:
    from repro.analysis.proto.report import verify_protocol, write_proto_report

    report = verify_protocol(root=args.root)
    for v in report.violations:
        print(v.format())
    for err in report.parse_errors:
        print(f"parse error: {err}")
    for entry in report.stale_noqas:
        print(f"stale noqa: {entry['path']}:{entry['line']}: "
              f"{entry['code']} no longer fires on this line — delete it")

    wire = report.wire
    opcodes = wire.get("opcodes", {})
    kinds = wire.get("frame_kinds", {})
    dtypes = wire.get("dtypes", {})
    print(f"wire: {len(opcodes)} opcode(s), {len(kinds)} frame kind(s), "
          f"{len(dtypes)} dtype(s) covered")
    for m in report.machines:
        status = "ok" if not m["violations"] else \
            f"{len(m['violations'])} invariant violation(s)"
        print(f"machine {m['machine']}: {m['states_explored']} state(s), "
              f"{m['transitions_checked']} edge(s), "
              f"{len(m['invariants_proven'])} invariant(s) proven — {status}")
    locks = report.locks
    print(f"locks: {len(locks.get('locks', []))} lock(s), "
          f"{locks.get('functions_scanned', 0)} function(s), "
          f"{len(locks.get('order_edges', []))} order edge(s), "
          f"{len(locks.get('cycles', []))} cycle(s)")
    print(f"{len(report.violations)} finding(s)"
          + (f", {len(report.suppressed)} suppressed by noqa"
             if report.suppressed else ""))
    if args.json:
        print(f"report written to {write_proto_report(args.json, report)}")
    return 0 if report.clean else 1


def cmd_check_determinism(args: argparse.Namespace) -> int:
    from repro import kernels
    from repro.analysis.determinism import CHECK_KINDS, check_determinism

    cases = [
        _build_case(key.strip(), args.size)
        for key in args.cases.split(",") if key.strip()
    ]
    if not cases:
        raise SystemExit("no cases given")
    tiers = ([t for t in args.tiers.split(",") if t]
             if args.tiers is not None else None)
    known = kernels.available_tiers()
    for t in tiers or ():
        if t not in known:
            raise SystemExit(
                f"tier {t!r} not available in this process; pick from {known}"
            )
    checks = None
    if args.check is not None:
        checks = [c.strip() for c in args.check.split(",") if c.strip()]
        for c in checks:
            if c not in CHECK_KINDS:
                raise SystemExit(
                    f"unknown check {c!r}; pick from {CHECK_KINDS}"
                )
    report = check_determinism(
        cases,
        nparts=args.nparts,
        tiers=tiers,
        precond=args.precond,
        seed=args.seed,
        rtol=args.rtol,
        maxiter=args.maxiter,
        checks=checks,
    )
    print(f"determinism matrix: {len(cases)} case(s), tiers "
          f"{','.join(report.tiers)}, P={report.nparts}")
    print(report.summary())
    n_fail = len(report.failures())
    print("all checks bitwise-identical" if report.identical
          else f"{n_fail} check(s) MISMATCHED")
    if args.json:
        print(f"report written to {report.write_json(args.json)}")
    return 0 if report.identical else 1


def cmd_info(_args: argparse.Namespace) -> int:
    from repro.perfmodel.machine import _MACHINES

    print("cases:          ", ", ".join(sorted(CASE_BUILDERS)))
    print("preconditioners:", ", ".join(PRECONDITIONER_NAMES))
    print("machines:       ", ", ".join(sorted(_MACHINES)))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    if getattr(args, "no_factor_cache", False):
        factor_cache.configure(enabled=False)
    commands = {
        "solve": cmd_solve,
        "sweep": cmd_sweep,
        "trace": cmd_trace,
        "faults": cmd_faults,
        "lint": cmd_lint,
        "verify-protocol": cmd_verify_protocol,
        "check-determinism": cmd_check_determinism,
        "serve": cmd_serve,
        "info": cmd_info,
    }
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
