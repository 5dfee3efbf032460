"""The concurrency that remains after the set-up thread pool: two
``SolveService`` workers run two set-ups at once on one process-wide factor
cache.  The factor kernels and the cache must be safe under concurrent
callers — same factors bit for bit, no race report.
"""

import sys
import threading

import pytest

from repro.analysis import sanitize
from repro.analysis.determinism import _digest
from repro.analysis.sanitize import race
from repro.comm.communicator import Communicator
from repro.factor import cache as factor_cache
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


def test_concurrent_setups_share_one_cache_safely(partitioned_poisson, armed):
    pm, dmat, rhs, _ = partitioned_poisson
    r = pm.to_distributed(rhs)
    want = _build_all(dmat, r)
    armed.clear()
    armed.reset_stats()

    results: list = [None] * NTHREADS
    gate = threading.Barrier(NTHREADS)

    def worker(i: int) -> None:
        try:
            gate.wait(timeout=60)
            results[i] = _build_all(dmat, r)
        except BaseException as exc:  # noqa: BLE001 - reported below
            results[i] = exc

    # more threads than the host has cores, switching often: a lost update
    # in the cache or a kernel sharing scratch would show in the digests
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

    assert results == [want] * NTHREADS
    assert not race.get_detector().reports
    stats = armed.stats()
    # the threads really met on the cache: every block was asked for by all
    assert stats["hits"] + stats["misses"] >= NTHREADS * 3 * pm.num_ranks
