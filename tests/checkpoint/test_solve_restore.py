"""A restored ``solve_case`` numbers its snapshots on from the one it read.

Snapshot steps count the whole job's iterations.  Numbered by the resumed
run's own count instead, a resumed run shorter than the one before it
writes snapshots older than the ones on disk, retention (``keep=3``)
deletes every one of them, and the next restore goes back to the older
state.
"""

import numpy as np

from repro import CASE_BUILDERS, solve_case
from repro.checkpoint import CheckpointManager

SOLVE = dict(precond="jacobi", nparts=2, restart=20, rtol=1e-10)


def test_restored_run_keeps_its_own_snapshots(tmp_path):
    case = CASE_BUILDERS["tc1"](33)
    first = solve_case(case, maxiter=100, checkpoint_dir=str(tmp_path), **SOLVE)
    assert first.status == "maxiter"
    mgr = CheckpointManager(tmp_path, prefix="solve")
    assert mgr.steps() == [60, 80, 100]

    second = solve_case(case, maxiter=40, checkpoint_dir=str(tmp_path),
                        restore=True, **SOLVE)
    assert second.status == "maxiter" and second.iterations == 40
    assert mgr.steps() == [100, 120, 140]
    latest = mgr.load_latest()
    assert latest.meta["iterations"] == 140
    np.testing.assert_array_equal(latest["x"], second.x_global)


def test_restore_from_an_empty_directory_numbers_from_zero(tmp_path):
    case = CASE_BUILDERS["tc1"](33)
    out = solve_case(case, maxiter=40, checkpoint_dir=str(tmp_path),
                     restore=True, **SOLVE)
    assert out.status == "maxiter"
    mgr = CheckpointManager(tmp_path, prefix="solve")
    assert mgr.steps() == [20, 40]
    np.testing.assert_array_equal(mgr.load_latest()["x"], out.x_global)
