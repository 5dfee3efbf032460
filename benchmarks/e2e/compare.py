#!/usr/bin/env python3
"""Compare two sets of benchmark runs under the bounds of BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

A is the parent (or the first half of an A/A check), B the change.  Give the
files in the order the runs were made, A and B interleaved in time, so that
``A[i]`` and ``B[i]`` form a pair.  One row per (workload, metric):

``better``      every B run beats every A run, or (ten or more pairs) B wins
                nine tenths of the pairs and the medians differ by more than
                A's own inter-quartile spread
``within``      the B median is no worse than A's by more than the bound
``worse``       it is worse by more than the bound (exit code 1)
``unresolved``  the run-to-run spread is wider than the bound, or the
                calibration kernel says the host moved by more than 5 %
``info``        per-layer timings have no bound; the change is shown only

The three ``core.*`` timings over every op (ISSUE 12's ``solves_per_s``,
``op_p50_s``, ``op_p90_s``) are judged here with the issue's bound of 0.10,
although BENCHMARK.json, which may only bound steady metrics, lists them
without one: on a noisy host they come out ``unresolved``, not ``within``.

Exact counts (iterations, messages, flops, modelled seconds) use bound 0 when
both sides ran the same seeds in the same order; with different seeds the
counts differ by construction and the declared bound applies.  Runs of
different ``--scale`` are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from host import REPO

EXACT_UNITS = {"count", "flops", "bytes", "modelled_s"}
TIMING_UNITS = {"s", "1/s", "us", "us/call"}
ALL_OPS = ("core.solves_per_s", "core.op_p50_s", "core.op_p90_s")
ALL_OPS_BOUND = 0.10
HOST_DRIFT = 0.05
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec() -> dict[str, dict]:
    """metric -> {better, bound (None for per-layer), unit}."""
    with open(REPO / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    spec = {m["name"]: dict(m) for m in bench["per_layer"]}
    spec.update({m["name"]: dict(m) for m in bench["end_to_end"]})
    for name in ALL_OPS:
        spec[name]["bound"] = ALL_OPS_BOUND
    return spec


def load_side(paths: list[str]) -> tuple[list[dict], str]:
    runs = [json.loads(Path(p).read_text()) for p in paths]
    scales = {run["host"]["scale"] for run in runs}
    if len(scales) != 1:
        raise SystemExit(f"refusing to mix scales {sorted(scales)} in one side")
    return runs, scales.pop()


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 runs)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def verdict(a: list[float], b: list[float], better: str, bound: float | None,
            host_moved: bool) -> tuple[str, float]:
    """(verdict, B's worsening as a share of A's median)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else sign * (med_b - med_a)
    if bound is None:
        return "info", worse_by
    if host_moved:
        return "unresolved (host.calib_s moved > 5 %)", worse_by
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "better", worse_by
    wide = max(spread(a), spread(b))
    if bound > 0 and wide > bound:
        return f"unresolved (spread {wide:.1%} > bound)", worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = list(zip(a, b))
    if len(pairs) >= MIN_PAIRS:
        wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
        q = statistics.quantiles(a, n=4)
        if wins >= WIN_SHARE * len(pairs) and abs(med_b - med_a) > q[2] - q[0]:
            return "better", worse_by
    return "within", worse_by


def main(argv: list[str]) -> int:
    if "--" not in argv:
        raise SystemExit(__doc__)
    cut = argv.index("--")
    (runs_a, scale_a), (runs_b, scale_b) = load_side(argv[:cut]), load_side(argv[cut + 1:])
    if scale_a != scale_b:
        raise SystemExit(f"refusing to compare scale {scale_a!r} with {scale_b!r}")
    spec = load_spec()
    same_seeds = [r["host"]["seed"] for r in runs_a] == [r["host"]["seed"] for r in runs_b]
    print(f"scale {scale_a}: {len(runs_a)} A run(s), {len(runs_b)} B run(s), "
          f"{'the same' if same_seeds else 'different'} seeds")
    print(f"{'workload':<16}{'metric':<30}{'A median':>14}{'B median':>14}{'worse by':>10}  verdict")
    any_worse = False
    workloads = [w for w in runs_a[0]["workloads"] if all(w in r["workloads"] for r in runs_a + runs_b)]
    for w in workloads:
        calib_a = statistics.median(c for r in runs_a for c in r["workloads"][w]["calib_s"])
        calib_b = statistics.median(c for r in runs_b for c in r["workloads"][w]["calib_s"])
        host_moved = abs(calib_b - calib_a) / calib_a > HOST_DRIFT
        for metric in runs_a[0]["workloads"][w]["metrics"]:
            a = [r["workloads"][w]["metrics"].get(metric) for r in runs_a]
            b = [r["workloads"][w]["metrics"].get(metric) for r in runs_b]
            if metric not in spec or None in a or None in b:
                continue
            m = spec[metric]
            exact = m["unit"] in EXACT_UNITS or metric == "ok_frac"
            bound = 0.0 if exact and same_seeds else m.get("bound")
            word, worse_by = verdict(a, b, m["better"], bound,
                                     host_moved and m["unit"] in TIMING_UNITS)
            any_worse |= word == "worse"
            print(f"{w:<16}{metric:<30}{statistics.median(a):>14.6g}"
                  f"{statistics.median(b):>14.6g}{worse_by:>+10.1%}  {word}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
