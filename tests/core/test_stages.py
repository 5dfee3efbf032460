"""The staged solve is the only solve pipeline under ``src/repro``, and a
case remembers the distributions it built."""

import ast
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import CASE_BUILDERS, obs, solve_case
from repro.cases.base import MEMBERSHIP_MEMO_SIZE
from repro.core import stages

SRC = Path(repro.__file__).resolve().parent
BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
STAGE_CALLS = {"PartitionMap", "distribute_matrix", "make_preconditioner"}


def _called_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def test_only_the_stage_module_runs_the_stages():
    callers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if _called_names(ast.parse(path.read_text())) & STAGE_CALLS
    }
    assert callers == {"core/stages.py"}


def test_benchmark_scripts_distribute_through_the_stage():
    # benchmarks/e2e is the benchmark's own copy of the pipeline
    scripts = sorted(BENCHMARKS.glob("*.py"))
    assert scripts
    assert [p.name for p in scripts if "distribute_matrix(" in p.read_text()] == []


# -- the distribution memo ----------------------------------------------------

@pytest.fixture
def tc1():
    return CASE_BUILDERS["tc1"](9)


def test_same_key_returns_the_same_distribution(tc1):
    first = stages.distribute(tc1, 3, seed=0)
    assert stages.distribute(tc1, 3, seed=0) is first
    # explicit memberships arrive as fresh arrays: the key is their bytes
    explicit = np.array(tc1.membership(3, seed=0))
    assert stages.distribute(tc1, 3, membership=explicit) is first


def test_another_membership_nparts_or_matrix_misses(tc1):
    first = stages.distribute(tc1, 3, seed=0)
    assert stages.distribute(tc1, 3, seed=1) is not first
    same_labels = tc1.membership(3, seed=0)
    assert stages.distribute(tc1, 4, membership=same_labels) is not first
    tc1.matrix = tc1.matrix.copy()
    again = stages.distribute(tc1, 3, seed=0)
    assert again is not first and again.pm.layout.total == first.pm.layout.total
    assert stages.distribute(tc1, 3, seed=0) is again


def test_forgotten_distributions_are_built_afresh(tc1):
    first = stages.distribute(tc1, 3, seed=0)
    tc1.forget_distributions()
    again = stages.distribute(tc1, 3, seed=0)
    assert again is not first and stages.distribute(tc1, 3, seed=0) is again


def test_memo_is_bounded_and_drops_the_oldest(tc1):
    first = stages.distribute(tc1, 2, seed=0)
    for seed in range(1, MEMBERSHIP_MEMO_SIZE + 2):
        stages.distribute(tc1, 2, seed=seed)
        assert len(tc1._distributions) <= MEMBERSHIP_MEMO_SIZE
    assert stages.distribute(tc1, 2, seed=0) is not first


def test_remembered_arrays_are_read_only_and_inputs_are_not(tc1):
    explicit = np.array(tc1.membership(3, seed=0))
    dmat = stages.distribute(tc1, 3, membership=explicit)
    pm = dmat.pm
    frozen = [
        dmat.matvec_flops, pm.membership, pm.perm, pm.inv_perm,
        pm.layout.rank_ptr, pm.subdomains[0].owned, pm.subdomains[0].ghost,
        pm.pattern.transfers[0].send_local, pm.pattern.msgs_per_rank,
        dmat.local[0].data, dmat.local[0].indices, dmat.blocks[0].B.data,
        dmat.ghost_coupling[0].indptr,
    ]
    assert not any(a.flags.writeable for a in frozen)
    # a RankBlock is built later, on the shared object: it is frozen too
    blk = dmat.rank_block(1)
    assert not any(a.flags.writeable for a in (blk.a.data, blk.a.indices, blk.a.indptr, blk.cols))
    assert dmat.rank_block(1) is blk
    # what the caller handed in is copied, not frozen under them
    assert explicit.flags.writeable and tc1.matrix.data.flags.writeable


def test_two_threads_on_one_cold_key_build_once(tc1, monkeypatch):
    builds = []
    real = stages.distribute_matrix

    def slow(a, pm):
        builds.append(pm)
        time.sleep(0.05)  # long enough for the other thread to arrive
        return real(a, pm)

    monkeypatch.setattr(stages, "distribute_matrix", slow)
    out, start = [], threading.Barrier(2)

    def worker():
        start.wait(timeout=10)
        out.append(stages.distribute(tc1, 3, seed=0))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert len(builds) == 1 and len(out) == 2 and out[0] is out[1]


def test_concurrent_callers_get_their_own_layout(tc1):
    """More threads than cores, a short switch interval and a memo that
    keeps evicting: every caller gets the distribution of its membership."""
    seeds = range(MEMBERSHIP_MEMO_SIZE + 2)
    expected = {seed: np.array(tc1.membership(2, seed=seed)) for seed in seeds}
    errors, start = [], threading.Barrier(8)

    def worker(offset):
        try:
            start.wait(timeout=10)
            for i in range(20):
                seed = (offset + i) % len(expected)
                dmat = stages.distribute(tc1, 2, seed=seed)
                if not np.array_equal(dmat.pm.membership, expected[seed]):
                    errors.append(seed)
                if len(tc1._distributions) > MEMBERSHIP_MEMO_SIZE:
                    errors.append("bound")
        except Exception as exc:  # surfaced below, with the thread joined
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_partition_and_distribute_spans_say_hit_or_miss(tc1):
    with obs.tracing() as tracer:
        solve_case(tc1, "block1", nparts=2)
        solve_case(tc1, "block1", nparts=2)
    memo = [(s.name, s.attrs["memo"]) for s in tracer.spans
            if s.name in ("partition", "distribute")]
    assert sorted(memo) == sorted([
        ("partition", "miss"), ("distribute", "miss"),
        ("partition", "hit"), ("distribute", "hit"),
    ])


_SOLVE_DIGEST = """
import hashlib, json, sys
import numpy as np
from repro import CASE_BUILDERS, solve_case
from repro.perfmodel.costs import COUNT_FIELDS

def digest(case, precond):
    out = solve_case(case, precond, nparts=3, seed=0)
    h = hashlib.sha256(out.x_global.tobytes())
    h.update(np.asarray(out.residuals, dtype=np.float64).tobytes())
    for led in (out.setup_ledger, out.solve_ledger):
        h.update(np.asarray([getattr(led, f) for f in COUNT_FIELDS], dtype=np.float64).tobytes())
        h.update(led.per_rank_flops.tobytes())
    return h.hexdigest()
"""


@pytest.mark.parametrize("precond", ["block2", "schur1"])
def test_a_solve_after_a_hit_matches_a_fresh_process(precond):
    ns: dict = {}
    exec(_SOLVE_DIGEST, ns)
    case = CASE_BUILDERS["tc1"](9)
    ns["digest"](case, precond)
    with obs.tracing() as tracer:
        warm = ns["digest"](case, precond)
    assert [s.attrs["memo"] for s in tracer.spans if s.name == "distribute"] == ["hit"]
    script = _SOLVE_DIGEST + (
        f"print(json.dumps(digest(CASE_BUILDERS['tc1'](9), {precond!r})))"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert json.loads(fresh.stdout) == warm
