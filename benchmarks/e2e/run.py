#!/usr/bin/env python3
"""End-to-end benchmark of the solve path: five workloads, one command.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--trace [0|1]]
                                  [--out FILE] [--seconds S] [--scale smoke]

Prints every metric by name with its unit, verifies every solution and exits
non-zero on a failed check.  ``--trace 0`` (default) only calls the user entry
points and reports the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports the per-layer metrics and writes the span file.  The
last line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  See README.md beside this file.

Each workload runs in a fresh child process (``--child`` below), so caches,
resident memory and rank processes never leak from one workload to the next.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import host  # noqa: E402  (must precede numpy: it caps the BLAS thread pools)

SCHEMA = "repro.bench.e2e.v1"
SETUP_REPEATS = 3          # set-ups per untraced run; setup_s is their median
CHILD_TIMEOUT_S = 170.0    # the driver allows 180 s per run


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload by name (default: all five)")
    parser.add_argument("--seed", type=int, default=0,
                        help="derives every partition seed and job seed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=float,
                        help="the driver passes run_seconds of BENCHMARK.json here; "
                             "that is also the default")
    parser.add_argument("--scale", default="bench", choices=("smoke", "bench"),
                        help="smoke: the self-tests' tiny sizes, one cycle, "
                             "whatever --seconds says")
    parser.add_argument("--out", help="result file (default: results/<run>.json)")
    parser.add_argument("--child", choices=("measure", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--one-core", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_seconds(args: argparse.Namespace) -> float:
    """How long the op loop runs whole cycles (it always runs ``min_cycles``)."""
    if args.scale == "smoke":
        return 0.0
    if args.seconds is not None:
        return args.seconds
    with open(host.REPO / "BENCHMARK.json") as fh:
        return float(json.load(fh)["run_seconds"])


# -- child: one workload, this process --------------------------------------


def child_main(args: argparse.Namespace) -> int:
    # before numpy is imported, so that its BLAS threads are confined too
    home_cores = host.pin_to_one_core() if args.one_core else None

    import engine
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload](args.seed, args.scale)
    w.home_cores = home_cores
    if args.child == "setup":
        w.setup()
        result = {"setup_s": time.time() - args.spawned_at}
        w.close()
    elif args.trace:
        result = engine.measure_traced(w, args.seconds)
    else:
        result = engine.measure_untraced(w, args.seconds, args.spawned_at)
    print(json.dumps(result, default=float))
    return 0


def spawn(args: argparse.Namespace, workload: str, mode: str) -> dict:
    """Run one child to completion and return the JSON on its last line."""
    from workloads import WORKLOADS

    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", mode,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--spawned-at", repr(time.time()),
    ] + ["--one-core"] * WORKLOADS[workload].one_core
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{workload} ({mode}) child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- parent: orchestrate, print, write ---------------------------------------


def run_workload(args: argparse.Namespace, name: str) -> dict:
    import engine

    calib_before = host.calibrate()
    setups = []
    if not args.trace:
        setups = [spawn(args, name, "setup")["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    result = spawn(args, name, "measure")
    calib_after = host.calibrate()
    metrics = result["metrics"]
    if args.trace:
        metrics["host.calib_s"] = (calib_before + calib_after) / 2
        metrics["host.cores"] = host.cores_available()
        for filled in ("host.calib_s", "host.cores"):
            result["notes"].pop(filled)
    else:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        result["setup_samples_s"] = setups
    units = {**engine.END_TO_END, **engine.PER_LAYER}
    result["units"] = {metric: units[metric][0] for metric in metrics}
    result["calib_s"] = [calib_before, calib_after]
    return result


def print_workload(name: str, result: dict, trace: int) -> None:
    kind = "per-layer (traced run, per cycle)" if trace else "end-to-end (untraced run)"
    print(f"\n== {name}: {kind}; {result['attempted']} ops in "
          f"{result['cycles']} cycles, {result['failed']} failed ==")
    for metric, value in result["metrics"].items():
        unit = result["units"][metric]
        if value is None:
            print(f"  {metric:<30} {'null':>16} {unit:<10} ({result['notes'][metric]})")
        else:
            print(f"  {metric:<30} {value:>16.6g} {unit}")
    for p in result.get("predictions", ()):
        print(f"  prediction: {p['metric']} is {p['low']:.0%}..{p['high']:.0%} of op wall"
              f" -> measured {p['share_of_op_wall']:.1%}: "
              f"{'holds' if p['holds'] else 'DOES NOT HOLD'}")
    if trace:
        print(f"  explicit pipeline equals the entry points: {result['equivalent']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def contract_line(results: dict[str, dict], trace: int) -> str:
    """The driver's last line.  Several workloads: names get the workload prefix.

    The driver wants exactly the metrics BENCHMARK.json declares for this kind
    of run, as numbers.  So the untraced run's ``core.*`` rows stay off this
    line, and a per-layer metric that does not apply to a workload is 0 here;
    the table above and the result file say ``null`` and why.
    """
    import engine

    declared = engine.PER_LAYER if trace else engine.END_TO_END
    metrics = {}
    for name, result in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        for metric, value in result["metrics"].items():
            if metric not in declared:
                continue
            metrics[prefix + metric] = {
                "value": 0.0 if value is None else value,
                "unit": result["units"][metric],
            }
    return json.dumps({
        "correct": all(not r["failures"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    host.prepare()
    args.seconds = run_seconds(args)
    if args.child:
        return child_main(args)

    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        results[name] = run_workload(args, name)
        print_workload(name, results[name], args.trace)

    host.RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload or 'all'}-seed{args.seed}-trace{args.trace}"
    out = Path(args.out) if args.out else host.RESULTS / f"{stem}.json"
    spans = {name: r.pop("spans") for name, r in results.items() if "spans" in r}
    if spans:
        span_path = out.with_name(out.stem + ".spans.json")
        span_path.write_text(json.dumps({"schema": SCHEMA + ".spans", "workloads": spans}))
        print(f"\nspans written to {span_path}")
    out.write_text(json.dumps({
        "schema": SCHEMA,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host.fingerprint(args.seed, args.scale),
        "workloads": results,
    }, indent=1) + "\n")
    print(f"results written to {out}")
    print(contract_line(results, args.trace))
    return 0 if all(not r["failures"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
