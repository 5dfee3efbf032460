"""A restored ``solve_case`` numbers its snapshots on from the one it read,
and only a cycle the solve does not converge in is snapshotted.

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


def test_a_converged_solve_snapshots_only_its_unconverged_cycles(tmp_path):
    """Nothing resumes from a converged cycle, so it writes no snapshot; a
    restore from the newest one (the last unconverged cycle) finishes the
    solve with the same bytes and status."""
    case = CASE_BUILDERS["tc1"](17)
    solve = dict(precond="block1", nparts=3, restart=20, rtol=1e-10)
    first = solve_case(case, checkpoint_dir=str(tmp_path), **solve)
    assert first.status == "converged" and first.iterations == 45
    mgr = CheckpointManager(tmp_path, prefix="solve")
    assert mgr.steps() == [20, 40]
    assert mgr.load_latest().meta["iterations"] < first.iterations

    again = solve_case(case, checkpoint_dir=str(tmp_path), restore=True, **solve)
    assert again.status == first.status
    assert again.iterations == first.iterations - 40
    assert again.x_global.tobytes() == first.x_global.tobytes()
    assert mgr.steps() == [20, 40]


def test_a_solve_converged_in_its_first_cycle_writes_nothing(tmp_path):
    case = CASE_BUILDERS["tc1"](17)
    out = solve_case(case, precond="schur1", nparts=3,
                     checkpoint_dir=str(tmp_path / "ckpt"))
    assert out.status == "converged" and out.iterations < 20
    assert CheckpointManager(tmp_path / "ckpt", prefix="solve").steps() == []
    assert not (tmp_path / "ckpt").exists()


def test_a_checkpointed_solve_is_charged_what_an_unchecked_one_is(tmp_path):
    """The snapshot target comes from the solve's own first residual, so a
    checkpointed solve makes no product of its own: its solve ledger and
    its bytes are the unchecked solve's."""
    case = CASE_BUILDERS["tc1"](17)
    for solve, counts in (
        (dict(precond="schur1", nparts=3), (292, 504.0, 197470.0)),
        (dict(precond="block1", nparts=3, rtol=1e-10), None),
    ):
        plain = solve_case(case, **solve)
        checked = solve_case(case, checkpoint_dir=str(tmp_path / solve["precond"]), **solve)
        assert checked.solve_ledger.counts() == plain.solve_ledger.counts()
        assert (checked.solve_ledger.per_rank_flops.tobytes()
                == plain.solve_ledger.per_rank_flops.tobytes())
        assert checked.x_global.tobytes() == plain.x_global.tobytes()
        ledger = plain.solve_ledger
        if counts is not None:
            assert (ledger.phases, ledger.total_msgs, ledger.crit_flops) == counts
    # block1 snapshots at 20 and 40: each carries rtol·‖b − A x0‖
    latest = CheckpointManager(tmp_path / "block1", prefix="solve").load_latest()
    assert latest.meta["target"] == 1e-10 * plain.residuals[0]
