"""The concurrency that remains after the set-up thread pool: two
``SolveService`` workers run two set-ups at once on one process-wide factor
cache.  The factor kernels and the cache must be safe under concurrent
callers — same factors bit for bit, no race report — and so must the stacks
the cache remembers beside warm factors: every thread gets the one stack,
and none runs an interpreted sweep.  So must the stacks a distribution keeps.
"""

import sys
import threading

import pytest

from repro.analysis import sanitize
from repro.analysis.determinism import _digest
from repro.analysis.sanitize import race
from repro.comm.communicator import Communicator
from repro.distributed import matrix as matrix_module
from repro.distributed.matrix import distribute_matrix
from repro.factor import cache as factor_cache
from repro.kernels import apply as apply_kernels
from repro.kernels import applyspec
from repro.precond.block_jacobi import block2
from repro.precond.schur1 import Schur1Preconditioner
from repro.precond.schur2 import Schur2Preconditioner

NTHREADS = 4


def _csr(m):
    return m.indptr, m.indices, m.data


def _ilu(fac):
    return (*_csr(fac.l_strict), *_csr(fac.u_upper), fac.stats.floored_pivots)


def _build_all(dmat, r) -> dict[str, str]:
    """Block 2, Schur 1 and Schur 2 on fresh communicators; digests of
    every factor they hold and of one application each."""
    nranks = dmat.pm.num_ranks
    b2 = block2(dmat, Communicator(nranks))
    s1 = Schur1Preconditioner(dmat, Communicator(nranks))
    s2 = Schur2Preconditioner(dmat, Communicator(nranks))
    parts = {
        "block2": [x for f in b2.factors for x in _ilu(f)],
        "schur1": [
            x
            for sb in s1.schur_blocks
            for t in (sb.LB, sb.UB, sb.LS, sb.US)
            for x in (*_csr(t.strict), t.diag if t.diag is not None else [])
        ],
        "schur2": [
            x
            for a in s2.arms
            for x in (*_csr(a.d_inv), *_csr(a.s_hat), *_ilu(a.s_ilu))
        ],
    }
    out = {name: _digest(*arrays) for name, arrays in parts.items()}
    out.update({
        f"{m.name} apply": _digest(m.apply(r)) for m in (b2, s1, s2)
    })
    return out


@pytest.fixture()
def armed(monkeypatch):
    """``REPRO_SANITIZE=race`` armed, cache on and empty; both restored."""
    cache = factor_cache.get_cache()
    prior = cache.enabled
    monkeypatch.setenv("REPRO_SANITIZE", "race")
    assert sanitize.refresh_from_env() == ("race",)
    del race.get_detector().reports[:]
    factor_cache.configure(enabled=True)
    cache.clear()
    yield cache
    cache.clear()
    factor_cache.configure(enabled=prior)
    sanitize.disable("race")


def _run_threads(fn) -> list:
    """``fn(i)`` on NTHREADS threads released together, switching often: a
    lost update in the cache or a kernel sharing scratch would show in the
    digests.  Returns each thread's result (or what it raised)."""
    results: list = [None] * NTHREADS
    gate = threading.Barrier(NTHREADS)

    def worker(i: int) -> None:
        try:
            gate.wait(timeout=60)
            results[i] = fn(i)
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            results[i] = exc

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(NTHREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def test_concurrent_setups_share_one_cache_safely(partitioned_poisson, armed):
    pm, dmat, rhs, _ = partitioned_poisson
    r = pm.to_distributed(rhs)
    want = _build_all(dmat, r)
    armed.clear()
    armed.reset_stats()

    results = _run_threads(lambda i: _build_all(dmat, r))
    assert results == [want] * NTHREADS
    assert not race.get_detector().reports
    stats = armed.stats()
    # the threads really met on the cache: every block was asked for by all
    assert stats["hits"] + stats["misses"] >= NTHREADS * 3 * pm.num_ranks


def test_warm_stacks_are_shared_and_probed_once(partitioned_poisson, armed, monkeypatch):
    """Four threads build Schur 1 and Block 2 on factors a previous set-up
    left warm, then apply them.  Schur 1's stacks were remembered (without
    gstrs slots) by that set-up; Block 2's stack is first built by the
    racing threads.  Every thread ends up with the same stack objects, no
    thread runs an interpreted pass — the process checked its gstrs once,
    before them — and the applies are bitwise those of a single-threaded
    build on a cold cache."""
    pm, dmat, rhs, _ = partitioned_poisson
    r = pm.to_distributed(rhs)
    nranks = pm.num_ranks

    def build(i: int):
        s1 = Schur1Preconditioner(dmat, Communicator(nranks))
        b2 = block2(dmat, Communicator(nranks))
        digests = {m.name: _digest(m.apply(r)) for m in (s1, b2)}
        return (s1._solve_b, s1._solve_s, b2.local_solver._fused), digests

    _, want = build(-1)
    armed.clear()
    Schur1Preconditioner(dmat, Communicator(nranks))
    block2(dmat, Communicator(nranks))
    armed.reset_stats()

    passes: list[int] = []  # list.append is atomic; a += from four threads is not
    forward_unit = applyspec.forward_unit

    def counted(*args):
        passes.append(1)
        return forward_unit(*args)

    monkeypatch.setattr(applyspec, "forward_unit", counted)
    prepared: list[int] = []
    gstrs_slots = apply_kernels._gstrs_slots
    monkeypatch.setattr(
        apply_kernels, "_gstrs_slots", lambda *a: prepared.append(1) or gstrs_slots(*a)
    )
    results = _run_threads(build)

    assert not [x for x in results if isinstance(x, BaseException)], results
    assert [digests for _, digests in results] == [want] * NTHREADS
    stacks = {tuple(id(s) for s in stacks) for stacks, _ in results}
    assert len(stacks) == 1
    assert passes == []
    # Schur 1's two stacks and Block 2's one, each prepared by at least one
    # of the threads that met at its first apply
    assert 3 <= len(prepared) <= 3 * NTHREADS
    assert not race.get_detector().reports
    stats = armed.stats()
    assert stats["misses"] == 0
    assert stats["stack_hits"] >= NTHREADS * (nranks + 1)


def test_racing_set_ups_share_the_distributions_stacks(
    partitioned_poisson, poisson_system, monkeypatch
):
    """Four Schur 1 set-ups race on a distribution nothing has stacked yet,
    all four inside the build at once (each waits for the others at its
    first stack): every one ends up with the one B, F, E, C the
    distribution keeps — racing builders each build, and the first value
    stored is everyone's."""
    pm = partitioned_poisson[0]
    dmat = distribute_matrix(poisson_system[0], pm)
    met, entered = threading.Barrier(NTHREADS), threading.local()
    stack = matrix_module._stack

    def all_inside(blocks):
        if not getattr(entered, "done", False):
            entered.done = True
            met.wait(timeout=60)
        return stack(blocks)

    monkeypatch.setattr(matrix_module, "_stack", all_inside)
    results = _run_threads(lambda i: Schur1Preconditioner(dmat, Communicator(pm.num_ranks)))

    assert not [x for x in results if isinstance(x, BaseException)], results
    stacks = dmat.split_stacks
    for M in results:
        assert all(a is s.a for a, s in zip((M._B, M._F, M._E, M._C), stacks))
