"""``fgmres_lockstep`` is ``fgmres`` run once per system, bit for bit.

The oracle is the plain loop: one ``fgmres`` per diagonal block, each with
its own operator, preconditioner and ``CountingOps``.  The lockstep run must
reproduce every system's x (as bytes), iteration count, status, residual
history and charged flops, charge each operator call to exactly the systems
whose own loop would have made it, and emit the same ``krylov.*`` events.
The systems are drawn to hit every way a system leaves the stepping:
convergence, lucky breakdown at j = 0 (a scaled identity), an exactly-zero
right-hand side, no rows at all, singular blocks, divergence at the first
residual (NaN) and in the Hessenberg update (overflow), and restarts
(``restart < maxiter``).
"""

from collections import Counter

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.kernels.apply import csr_matvec, stack_csr
from repro.krylov.fgmres import fgmres, fgmres_lockstep
from repro.krylov.ops import CountingOps

KINDS = ("random", "singular", "identity", "diagonal", "zero-rhs", "empty", "nan", "overflow")


def _block(kind, n, rng):
    """``(A, m_inv, b)`` of one system: the operator, a Jacobi preconditioner
    (elementwise, so stacking it keeps every slice's bits) and the RHS."""
    if kind == "identity":
        a = sp.identity(n, format="csr") * 3.0
    elif kind == "diagonal":
        a = sp.diags(rng.uniform(1.0, 5.0, n), format="csr")
    else:
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.6)
        if kind != "singular":
            dense[np.arange(n), np.arange(n)] += 2.0 + np.abs(dense).sum(axis=1)
        elif n:
            dense[:, 0] = 0.0
        if kind == "nan" and n:
            dense[0, 0] = np.nan
        if kind == "overflow" and n:
            dense[0, :] = 1e300
        a = sp.csr_matrix(dense)
    m_inv = 1.0 / np.where(a.diagonal() == 0.0, 1.0, a.diagonal())
    b = np.zeros(n) if kind == "zero-rhs" else rng.standard_normal(n)
    return a, m_inv, b


@st.composite
def block_systems(draw):
    nsys = draw(st.integers(min_value=1, max_value=5))
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(nsys)]
    sizes = [0 if k == "empty" else draw(st.integers(min_value=1, max_value=7)) for k in kinds]
    restart = draw(st.integers(min_value=1, max_value=4))
    maxiter = draw(st.integers(min_value=restart, max_value=3 * restart))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return [_block(k, n, rng) for k, n in zip(kinds, sizes)], restart, maxiter


def _krylov_events(tracer):
    return Counter(e["name"] for e in tracer.orphan_events if e["name"].startswith("krylov."))


def _loop(systems, restart, maxiter):
    counters, results = [], []
    with obs.tracing() as tracer:
        for a, m_inv, b in systems:
            counter = CountingOps(max(len(b), 1))
            counters.append(counter)
            if not len(b):
                results.append(None)
                continue

            def apply_a(v, a=a, counter=counter):
                counter.add(2.0 * a.nnz)
                return csr_matvec(a, v)

            def apply_m(v, m_inv=m_inv, counter=counter):
                counter.add(float(len(v)))
                return v * m_inv

            results.append(fgmres(
                apply_a, b, apply_m=apply_m, restart=restart, rtol=1e-12,
                maxiter=maxiter, ops=counter,
            ))
    return results, counters, _krylov_events(tracer)


def _lockstep(systems, restart, maxiter):
    a_hat = stack_csr([a for a, _, _ in systems])
    m_hat = np.concatenate([m for _, m, _ in systems])
    b = np.concatenate([b for _, _, b in systems])
    bounds = np.cumsum([0] + [len(b) for _, _, b in systems]).tolist()
    counters = [CountingOps(max(len(b), 1)) for _, _, b in systems]
    calls = []

    def apply_a(v, live):
        calls.append(("a", list(live)))
        for s in live:
            counters[s].add(2.0 * systems[s][0].nnz)
        return csr_matvec(a_hat, v)

    def apply_m(v, live):
        calls.append(("m", list(live)))
        for s in live:
            counters[s].add(float(bounds[s + 1] - bounds[s]))
        return v * m_hat

    with obs.tracing() as tracer:
        x, results = fgmres_lockstep(
            apply_a, b, bounds, apply_m, counters,
            restart=restart, rtol=1e-12, maxiter=maxiter,
        )
    return x, results, counters, calls, _krylov_events(tracer)


@given(block_systems())
@settings(max_examples=150, deadline=None)
def test_lockstep_is_one_fgmres_per_system(drawn):
    systems, restart, maxiter = drawn
    with np.errstate(all="ignore"):
        want, want_counters, want_events = _loop(systems, restart, maxiter)
        x, got, counters, calls, events = _lockstep(systems, restart, maxiter)
    bounds = np.cumsum([0] + [len(b) for _, _, b in systems])
    for s, (w, g) in enumerate(zip(want, got)):
        assert g.x.tobytes() == x[bounds[s] : bounds[s + 1]].tobytes()
        if w is None:  # no rows: not solved, nothing charged
            assert (g.status, g.iterations, g.residuals) == ("converged", 0, [])
            assert counters[s].flops == 0.0
            continue
        assert g.x.tobytes() == w.x.tobytes(), s
        assert (g.status, g.iterations) == (w.status, w.iterations), s
        assert np.asarray(g.residuals).tobytes() == np.asarray(w.residuals).tobytes(), s
        assert counters[s].flops == want_counters[s].flops, s
    assert events == want_events
    # every call is made for someone, and names them in ascending order
    assert all(live and live == sorted(live) for _, live in calls)


def test_masking_leaves_systems_at_their_own_step():
    """Unequal early exits: a one-row block breaks down at j = 0 (its basis
    vector is ±1, so MGS leaves exactly zero), a zero right-hand side never
    steps, an empty block is skipped, and general blocks run to ``maxiter``
    — the calls after each exit leave it out."""
    rng = np.random.default_rng(3)
    systems = [
        _block("random", 6, rng), _block("identity", 1, rng),
        _block("zero-rhs", 3, rng), _block("empty", 0, rng), _block("random", 5, rng),
    ]
    x, results, _, calls, _ = _lockstep(systems, restart=3, maxiter=3)
    assert [r.iterations for r in results] == [3, 1, 0, 0, 3]
    assert [r.status for r in results] == ["maxiter", "converged", "converged", "converged", "maxiter"]
    assert calls == [
        ("a", [0, 1, 2, 4]),                    # the initial residuals
        ("m", [0, 1, 4]), ("a", [0, 1, 4]),     # j = 0
        ("m", [0, 4]), ("a", [0, 4]),           # j = 1: the identity left
        ("m", [0, 4]), ("a", [0, 4]),           # j = 2
        ("a", [0, 1, 4]),                       # the true residuals
    ]
    want, _, _ = _loop(systems, 3, 3)
    assert all(
        w is None or w.x.tobytes() == g.x.tobytes() for w, g in zip(want, results)
    )
