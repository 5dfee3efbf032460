"""Micro-benchmarks of the apply-phase kernels (triangular sweeps, matvec).

Companion to ``bench_kernels_micro.py`` (which owns the *setup*-phase
timings): this file measures what every Krylov iteration actually executes
— the forward/backward triangular sweeps of one preconditioner application
and the distributed CSR matvec — per kernel tier, plus one whole-solve
comparison so the per-sweep speedup is shown to survive end-to-end.

Both files merge their sections into the schema-versioned
``results/BENCH_kernels.json`` (``repro.bench.kernels.v5``): this one owns
the ``apply``, ``whole_solve`` and ``whole_apply`` sections and gates the
tentpole's acceptance criteria — apply-sweep speedup >= 5x at the gate
configuration (drop_tol=1e-4, fill=20) and a whole-solve speedup over the
reference tier.  Tier outputs are asserted bitwise-identical while timing,
so the speedups cannot come from a semantics change.  ``whole_apply`` is
ungated: what one whole preconditioner application costs, in microseconds
and in compiled calls, on the tuple the end-to-end ``krylov_march`` runs.
"""

import timeit

import numpy as np

from bench_kernels_micro import _tc1_subdomain_block
from common import merge_results_json, scale, scaled_n

GATE = {"drop_tol": 1e-4, "fill": 20, "required_speedup": 5.0}
WHOLE_SOLVE_GATE = {"required_speedup": 1.5}
#: krylov_march's tuple (benchmarks/e2e/workloads.py) and its two op kinds
WHOLE_APPLY = {"case": "tc4", "n": 15, "nparts": 8, "preconds": ("block2", "schur1")}


def _best(fn, repeat=7):
    return min(timeit.repeat(fn, number=1, repeat=repeat)) * 1e3


def test_apply_sweep_speedup():
    """Per-application sweep cost per tier on the TC1 subdomain block.

    Gates the >= 5x apply criterion at (drop_tol=1e-4, fill=20) and emits
    the ``apply`` section of BENCH_kernels.json.
    """
    from repro import kernels
    from repro.factor import cache as factor_cache
    from repro.factor.ilut import ilut
    from repro.kernels import apply as apply_kernels

    a, case = _tc1_subdomain_block()
    n = a.shape[0]
    rng = np.random.default_rng(5)
    b = rng.random(n)

    factor_cache.configure(enabled=False)
    try:
        rows = []
        for drop_tol, fill in [(1e-3, 10), (1e-4, 20)]:
            # factors are bitwise-identical across tiers (checked by
            # bench_kernels_micro and check-determinism); build once fast
            with kernels.forced_tier("numpy"):
                fac = ilut(a, drop_tol, fill)
            timings = {}
            with kernels.forced_tier("reference"):
                timings["reference"] = _best(lambda: fac.solve(b), repeat=3)
                x_ref = fac.solve(b)
            with kernels.forced_tier("numpy"):
                timings["numpy"] = _best(lambda: fac.solve(b))
                assert np.array_equal(fac.solve(b), x_ref), (
                    "numpy apply is not bitwise-identical"
                )
            # per-sweep split under the fast tier (solo L and U solves)
            with kernels.forced_tier("numpy"):
                sweep_ms = {
                    "forward": _best(lambda: fac.L.solve(b)),
                    "backward": _best(lambda: fac.U.solve(b)),
                }
            rows.append({
                "drop_tol": drop_tol,
                "fill": fill,
                "nnz": fac.nnz,
                "apply_ms": timings,
                "sweep_ms": sweep_ms,
                "speedup": timings["reference"] / timings["numpy"],
            })

        # matvec tiers on the full TC1 operator
        x = rng.random(case.matrix.shape[0])
        mv_timings = {}
        with kernels.forced_tier("reference"):
            mv_timings["reference"] = _best(
                lambda: apply_kernels.csr_matvec(case.matrix, x), repeat=3
            )
            mv_ref = apply_kernels.csr_matvec(case.matrix, x)
        with kernels.forced_tier("numpy"):
            mv_timings["numpy"] = _best(
                lambda: apply_kernels.csr_matvec(case.matrix, x)
            )
            assert np.array_equal(apply_kernels.csr_matvec(case.matrix, x), mv_ref)
    finally:
        factor_cache.configure(enabled=True)

    section = {
        "superlu_available": apply_kernels.superlu_available(),
        "gate": GATE,
        "sweeps": rows,
        "matvec_ms": mv_timings,
        "matvec_speedup": mv_timings["reference"] / mv_timings["numpy"],
    }
    path = merge_results_json("BENCH_kernels.json", {"apply": section})
    gate_row = next(
        r for r in rows if (r["drop_tol"], r["fill"]) == (GATE["drop_tol"], GATE["fill"])
    )
    print("\napply sweep speedups: "
          + ", ".join(f"({r['drop_tol']:g},{r['fill']}) {r['speedup']:.1f}x"
                      for r in rows)
          + f"; matvec {section['matvec_speedup']:.1f}x\n[written to {path}]")
    # the 5x acceptance gate is defined at TC1 scale (tiny blocks cannot
    # amortize per-call overhead); smoke runs still emit the JSON
    if scale() >= 1.0:
        assert gate_row["speedup"] >= GATE["required_speedup"]


def test_whole_solve_speedup():
    """End-to-end solve under the reference vs. fast apply tiers.

    The per-sweep speedup must survive the full pipeline (setup + Krylov
    iterations + matvecs).  Iterates are bitwise-identical across tiers,
    so the wall-clock ratio isolates kernel dispatch.  Emits the
    ``whole_solve`` section and gates its speedup.
    """
    import time

    from repro import kernels
    from repro.core.driver import solve_case
    from repro.factor import cache as factor_cache

    a, case = _tc1_subdomain_block()

    # RCM ordering keeps the ILUT window of these n ~ 2500 blocks a 1.4 MB
    # band; in natural ordering it is a 50 MB square, over BAND_MEM_CAP, and
    # both tiers would factor with the reference kernel
    def run():
        return solve_case(
            case, precond="block2", nparts=4, seed=0,
            precond_params={"ordering": "rcm"},
        )

    factor_cache.configure(enabled=False)
    try:
        with kernels.forced_tier("reference"):
            t0 = time.perf_counter()
            out_ref = run()
            ref_s = time.perf_counter() - t0
        with kernels.forced_tier("numpy"):
            run()  # warm scipy/driver paths so the timed run is steady-state
            t0 = time.perf_counter()
            out_np = run()
            np_s = time.perf_counter() - t0
    finally:
        factor_cache.configure(enabled=True)

    assert out_ref.iterations == out_np.iterations
    assert np.array_equal(out_ref.x_global, out_np.x_global)
    section = {
        "case": case.key,
        "precond": "block2",
        "nparts": 4,
        "iterations": out_np.iterations,
        "status": out_np.status,
        "solve_s": {"reference": ref_s, "numpy": np_s},
        "speedup": ref_s / np_s,
        "gate": WHOLE_SOLVE_GATE,
    }
    path = merge_results_json("BENCH_kernels.json", {"whole_solve": section})
    print(f"\nwhole-solve: reference {ref_s:.2f}s vs numpy {np_s:.2f}s "
          f"({section['speedup']:.2f}x, {out_np.iterations} iterations)"
          f"\n[written to {path}]")
    if scale() >= 1.0:
        assert section["speedup"] >= WHOLE_SOLVE_GATE["required_speedup"]


class _Counted:
    """A compiled scipy module with one entry point counted."""

    def __init__(self, real, name):
        self.calls = 0

        def counted(*args):
            self.calls += 1
            return getattr(real, name)(*args)

        setattr(self, name, counted)


def test_whole_apply(monkeypatch):
    """One whole ``M(r)``: microseconds and compiled calls per application.

    The triangular sweeps above are one layer of an application; the rest
    is the driver around them.  With the rank-stacked operators a Block 2
    apply is one sweep and a Schur 1 apply 2·P·local + 2·global + 2 sweeps,
    whatever P is for step 2 (docs/performance.md §9).  Ungated — the
    end-to-end benchmark owns the claim — but written down so the trajectory
    of "calls per apply" is on file.  Emits the ``whole_apply`` section.
    """
    from repro.cases import build_case
    from repro.comm.communicator import Communicator
    from repro.core import make_preconditioner
    from repro.distributed.matrix import distribute_matrix
    from repro.distributed.partition_map import PartitionMap
    from repro.kernels import apply as apply_kernels

    nparts = WHOLE_APPLY["nparts"]
    case = build_case(WHOLE_APPLY["case"], scaled_n(WHOLE_APPLY["n"]))
    pm = PartitionMap(case.coupling_graph, case.membership(nparts, seed=0), num_ranks=nparts)
    dmat = distribute_matrix(case.matrix, pm)
    r = np.random.default_rng(6).standard_normal(pm.layout.total)

    rows = []
    for name in WHOLE_APPLY["preconds"]:
        m = make_preconditioner(name, dmat, Communicator(nparts), case)
        m(r)  # probes and prepares every sweep
        apply_us = _best(lambda: m(r), repeat=15) * 1e3
        with monkeypatch.context() as patch:
            sweeps = _Counted(apply_kernels._superlu(), "gstrs")
            products = _Counted(apply_kernels._sparsetools(), "csr_matvec")
            patch.setattr(apply_kernels, "_superlu", lambda: sweeps)
            patch.setattr(apply_kernels, "_sparsetools", lambda: products)
            m(r)
        rows.append({
            "precond": name,
            "apply_us": apply_us,
            "compiled_calls": {"gstrs": sweeps.calls, "csr_matvec": products.calls},
        })

    section = {
        "case": case.key, "n": scaled_n(WHOLE_APPLY["n"]), "nparts": nparts,
        "dofs": int(pm.layout.total), "applies": rows,
    }
    path = merge_results_json("BENCH_kernels.json", {"whole_apply": section})
    print("\nwhole apply: " + ", ".join(
        f"{row['precond']} {row['apply_us']:.0f} us, "
        f"{row['compiled_calls']['gstrs']} sweeps + "
        f"{row['compiled_calls']['csr_matvec']} products" for row in rows
    ) + f"\n[written to {path}]")
