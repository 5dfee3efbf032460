"""Golden solves: what "one staged solve, same bits" means.

Every row was generated at commit 25cc8c4, the parent of the staged solve
(``repro.core.stages``), where ``solve_case``, ``TransientHeatSolver`` and
``check-determinism`` each wrote the partition → distribute → set-up →
Krylov pipeline out by hand.  A row holds the sha256 of the solution and of
the residual history plus the iteration count of ``solve_case`` on TC1
n = 17 at P = 4, and the sha256 of the state and the iteration count after
each of three ``TransientHeatSolver`` steps on the TC4 mesh.  A stage that
moved one bit of a partition, a set-up or a Krylov run moves a row here.
"""

import hashlib

import numpy as np
import pytest

from repro import CASE_BUILDERS, solve_case
from repro.core.transient import TransientHeatSolver

NPARTS = 4
TC4_N = 7

# row -> (precond, extra solve_case keywords)
SOLVES = {
    "block1": ("block1", {}),
    "block2": ("block2", {}),
    "schur1": ("schur1", {}),
    "schur2": ("schur2", {}),
    "cg-block1": ("block1", {"solver": "cg"}),
    "bicgstab-schur1": ("schur1", {"solver": "bicgstab"}),
    "checkpointed-block2": ("block2", {"restart": 5, "checkpoint_every": 2}),
}
MARCHES = ("block2", "schur1")

# row -> [sha256 of x, sha256 of the residual history, iterations]
SOLVE_GOLDEN = {'bicgstab-schur1': ['50db3ef86a36de57a57d69b57b97cfba870904b6c47504c259dd2e14d655591d',
                     'e4657f0b669beacf6281df5d36f77b11c789191b02501e767db7117128439073',
                     3],
 'block1': ['766a2a821bfcd4cfcaa45bf17877e79b44cd0ee472f5b979a43aaa7dd2a81923',
            '9c3749b0478e75c31118f1a527e693a8a6d7cc75ce57262f298bde9ac510aa69',
            25],
 'block2': ['0f856551726c8720c62b2322bc8dfb4e24187d39004098711ff7a8b00d510670',
            '39a7ad700c578104df67c257988dff6df689306c82445336a3644ba8909c3acc',
            21],
 'cg-block1': ['3618131cff8ae73e1a993aef4e492dd6494a7a79c7e881e55719f0a3615cb91e',
               '4041e5965378b414584895e6910d35f5fb5b638ffa6073699337838a1faca0b6',
               24],
 'checkpointed-block2': ['94a0cdc3fbdf456dcfdf18f8851b9390f5eaa2dff728c25eda9235e67a36d995',
                         'b1787668ae1cb2d589e76f29f6a19e364f72fef4e0393803f85f18076aab38fa',
                         32],
 'schur1': ['b3b527d313c829e5d4609d758d7fdae75ce4bc129e2c8b4a69b71c4bf585c31b',
            '6898fb9a6aa9f0bfce4a56f64d8a11f2583c5138877afb399692537eb11d5d30',
            5],
 'schur2': ['65efe7226dbad009e06671ec9f12aa52d6e21a23067d6bb206d5cb97a9e725e9',
            '0f82e8ad0526f3198a0da08ad322a7b9180f14d9a57bb92623f7f66e06d3bf9a',
            5]}

# precond -> one [sha256 of u, iterations] per step
MARCH_GOLDEN = {'block2': [['72a3b0c5a252a97bffe3053618ede56dd07b5a04614eb01ea2fcf36ba08d661b', 22],
            ['27cc1142fd33d8e277558ef31014ec4f2f227795525e0570d9e75a1b3293e1da', 22],
            ['8a065c55a49cc27ed4987d79da1b96e1c1f2ca23fc247a1f42abf426490ecdb3', 22]],
 'schur1': [['d30f65c522b3817e1bcce77fcb79383ead2b030b17f8f5ce7df51f451a2144e0', 5],
            ['b55310952c03f54e066fe7b09680773343681ded4bc2f8b405447d125ec3f8d2', 5],
            ['b57ccb9c223b11a2a2dfe68252aff2595d34c888323052b98478c083151198a0', 5]]}

# sha256 of the TC4 membership both the case and the transient solver use
MEMBERSHIP_GOLDEN = '40274c4c13ef05dbe459c3ad033719f0435aa75ef33d16e438b234388d60d84a'


def _sha(a) -> str:
    a = np.ascontiguousarray(a)
    h = hashlib.sha256()
    h.update(f"{a.dtype}|{a.shape}|".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def measure_solve(row: str, tmp_path) -> list:
    precond, extra = SOLVES[row]
    if "checkpoint_every" in extra:
        extra = dict(extra, checkpoint_dir=str(tmp_path))
    out = solve_case(CASE_BUILDERS["tc1"](17), precond, nparts=NPARTS, **extra)
    residuals = np.asarray(out.residuals, dtype=np.float64)
    return [_sha(out.x_global), _sha(residuals), out.iterations]


def _tc4_solver(precond: str) -> tuple:
    case = CASE_BUILDERS["tc4"](TC4_N)
    mesh = case.mesh
    ths = TransientHeatSolver(
        mesh, dt=0.05, dirichlet_nodes=mesh.boundary_set("right"),
        precond=precond, nparts=NPARTS, seed=0, rtol=1e-8,
    )
    return case, ths


def measure_march(precond: str) -> list:
    case, ths = _tc4_solver(precond)
    try:
        u, rows = case.x0, []
        for _ in range(3):
            u = ths.advance(u, 1)
            rows.append([_sha(u), ths.history[-1].iterations])
        return rows
    finally:
        ths.close()


@pytest.mark.parametrize("row", sorted(SOLVES))
def test_solve_case_matches_golden(row, tmp_path):
    assert measure_solve(row, tmp_path) == SOLVE_GOLDEN[row]


@pytest.mark.parametrize("precond", MARCHES)
def test_transient_steps_match_golden(precond):
    assert measure_march(precond) == MARCH_GOLDEN[precond]


def test_transient_membership_is_the_cases():
    case, ths = _tc4_solver("block2")
    ths.close()
    expected = case.membership(NPARTS, seed=0)
    np.testing.assert_array_equal(ths.membership, expected)
    assert _sha(np.asarray(ths.membership, dtype=np.int64)) == MEMBERSHIP_GOLDEN
