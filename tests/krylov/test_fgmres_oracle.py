"""``fgmres`` is the deleted one-system loop, bit for bit.

``fgmres`` is now the one-system case of the lockstep cycle; the loop it
replaced lives on in ``reference_fgmres``.  Both run on the same system and
must agree on x (as bytes), status, iterations, residual history, the
``CountingOps`` flops, every operator call (its kind and the bytes it was
handed), the ``krylov.*`` and ``resilience.detected`` events in order with
their attributes, and the ``on_restart`` calls (iterations, x as bytes and
the first residual norm), which come only at the end of a cycle the solve
does not converge in.
The systems hit every way the loop ends: ``x0``, ``atol > 0``, fused and
split steps, restarts, ``maxiter = 0``, no rows, NaN at the first residual,
overflow in the Hessenberg update, divergence at a restart and a singular
block that stagnates on breakdown.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.kernels.apply import csr_matvec
from repro.krylov.fgmres import fgmres
from repro.krylov.ops import CountingOps
from tests.krylov.reference_fgmres import reference_fgmres

KINDS = ("random", "singular", "identity", "zero-rhs", "nan", "overflow", "nan-at-restart")


def _system(kind, n, seed):
    """``(A, m_inv, b, nan_call)``: the operator, a Jacobi preconditioner,
    the right-hand side and the product with A (1-based) whose output turns
    NaN, if any — the third is the first true residual at ``restart=1``."""
    rng = np.random.default_rng(seed)
    if kind == "identity":
        a = sp.identity(n, format="csr") * 3.0
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
    return a, m_inv, b, 3 if kind == "nan-at-restart" else None


def _solve(solver, system, *, restart, maxiter, x0=None, atol=0.0, fused=False):
    a, m_inv, b, nan_call = system
    counter = CountingOps(len(b))
    calls, restarts = [], []

    def apply_a(v):
        calls.append(("a", v.tobytes()))
        counter.add(2.0 * a.nnz)
        y = csr_matvec(a, v)
        if sum(kind == "a" for kind, _ in calls) == nan_call:
            y[:] = np.nan
        return y

    def apply_m(v):
        calls.append(("m", v.tobytes()))
        counter.add(float(len(v)))
        return v * m_inv

    def apply_ma(v):
        z = apply_m(v)
        return z, apply_a(z)

    with obs.tracing() as tracer:
        res = solver(
            apply_a, b, apply_m=apply_m, x0=x0, restart=restart, rtol=1e-10,
            atol=atol, maxiter=maxiter, ops=counter,
            on_restart=lambda k, x, r0: restarts.append((k, x.tobytes(), r0)),
            apply_ma=apply_ma if fused else None,
        )
    events = [(e["name"], repr(e["attrs"])) for e in tracer.orphan_events]
    assert all(
        name.startswith("krylov.") or name == "resilience.detected" for name, _ in events
    )
    return res, counter.flops, calls, events, restarts


def _assert_same(system, **kw):
    with np.errstate(all="ignore"):
        want, want_flops, want_calls, want_events, want_restarts = _solve(
            reference_fgmres, system, **kw
        )
        got, flops, calls, events, restarts = _solve(fgmres, system, **kw)
    assert got.x.tobytes() == want.x.tobytes()
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert np.asarray(got.residuals).tobytes() == np.asarray(want.residuals).tobytes()
    assert flops == want_flops
    assert calls == want_calls
    assert events == want_events
    assert restarts == want_restarts
    _assert_hook_contract(got, events, restarts)
    return got, events


def _assert_hook_contract(res, events, restarts):
    """``on_restart`` sees the end of every cycle a resume could start from
    and no other: a cycle that converges, or diverges at its true residual,
    ends the solve without it, and a solve that stops unconverged hands its
    last hook the iterate it returns.  Every call hands it the first
    residual norm."""
    ends = sum(name == "krylov.restart" for name, _ in events)
    unresumable = res.status == "converged" or any(
        "fgmres.restart" in attrs for _, attrs in events
    )
    assert len(restarts) == ends - (1 if unresumable and ends else 0)
    assert all(k < res.iterations for k, _, _ in restarts[:-1])
    assert all(r0 == res.residuals[0] for _, _, r0 in restarts)
    if res.status in ("maxiter", "stagnated") and ends:
        assert restarts[-1] == (res.iterations, res.x.tobytes(), res.residuals[0])
    if res.status == "converged":
        assert all(k < res.iterations for k, _, _ in restarts)


@st.composite
def solves(draw):
    kind = draw(st.sampled_from(KINDS + ("empty",)))
    n = 0 if kind == "empty" else draw(st.integers(min_value=1, max_value=9))
    system = _system(kind, n, draw(st.integers(min_value=0, max_value=2**31 - 1)))
    restart = draw(st.integers(min_value=1, max_value=4))
    kw = {
        "restart": restart,
        "maxiter": draw(st.integers(min_value=0, max_value=3 * restart)),
        "fused": draw(st.booleans()),
    }
    if draw(st.booleans()):
        kw["x0"] = np.random.default_rng(n).standard_normal(n)
    if draw(st.booleans()):
        kw["atol"] = 1e-3 * float(np.linalg.norm(system[2]))
    return system, kw


@given(solves())
@settings(max_examples=200, deadline=None)
def test_fgmres_is_the_reference_loop(drawn):
    system, kw = drawn
    _assert_same(system, **kw)


@pytest.mark.parametrize("fused", [False, True])
@pytest.mark.parametrize("name,system,kw,status,where", [
    ("restarts", _system("random", 9, 1), {"restart": 2, "maxiter": 7}, "maxiter", None),
    ("x0 and atol", _system("random", 8, 2),
     {"restart": 3, "maxiter": 30, "x0": np.full(8, 0.5), "atol": 1e-2}, "converged", None),
    ("maxiter = 0", _system("random", 5, 3), {"restart": 2, "maxiter": 0}, "maxiter", None),
    ("no rows", _system("random", 0, 4), {"restart": 2, "maxiter": 4}, "converged", None),
    ("nan at r0", _system("nan", 5, 5), {"restart": 2, "maxiter": 4}, "diverged",
     "fgmres.r0"),
    ("overflow in the Hessenberg", _system("overflow", 5, 6),
     {"restart": 2, "maxiter": 4}, "diverged", "fgmres.hessenberg"),
    ("nan at a restart", _system("nan-at-restart", 6, 7),
     {"restart": 1, "maxiter": 4}, "diverged", "fgmres.restart"),
    ("singular, breakdown without progress",
     (sp.csr_matrix(np.diag([1.0, 0.0])), np.ones(2), np.array([0.0, 1.0]), None),
     {"restart": 2, "maxiter": 4}, "stagnated", None),
])
def test_every_exit(name, system, kw, status, where, fused):
    res, events = _assert_same(system, fused=fused, **kw)
    assert res.status == status, name
    detected = [attrs for event, attrs in events if event == "resilience.detected"]
    assert detected == ([] if where is None else [repr(
        {"kind": "diverged", "where": where} if where == "fgmres.r0"
        else {"kind": "diverged", "where": where, "iteration": res.iterations}
    )])
