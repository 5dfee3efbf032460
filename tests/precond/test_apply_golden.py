"""Golden preconditioner applies: what "fused execution, same bits" means.

Every row was generated at commit e88c25d, the parent of the rank-stacked
apply (one compiled sweep / product per phase instead of one per rank): the
sha256 of ``M.apply(r)`` for a seeded ``r`` and, after three applies, every
``CostLedger`` field and the per-rank flops as ``float.hex``.  The tuples are
the five the end-to-end benchmark runs at seed 0.  A stacked operator that
moved one bit of a correction, or charged one flop to the wrong rank, moves a
row here.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.cases import build_case
from repro.comm.communicator import Communicator
from repro.core import make_preconditioner
from repro.distributed.matrix import distribute_matrix
from repro.distributed.partition_map import PartitionMap
from repro.perfmodel.costs import COUNT_FIELDS

TUPLES = {
    "table_sweep": ("tc1", 51, 8),
    "setup_bound": ("tc2", 15, 8),
    "krylov_march": ("tc4", 15, 8),
    "mp_ranks": ("tc1", 101, 2),
    "service_closed": ("tc1", 25, 4),
}
PRECONDS = {
    "block1": ("block1", None),
    "block2": ("block2", None),
    "block2-rcm": ("block2", {"ordering": "rcm"}),
    "schur1": ("schur1", None),
    "schur2": ("schur2", None),
}

# (workload, precond) -> [sha256 of the first apply, ledger counts, per-rank flops]
GOLDEN = {('krylov_march', 'block1'): ['e64d71dbc254af08b893d75819e7385360cb052276c0f22da5d464c86095cf46',
                              ['0x1.ddcc000000000p+14', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                               '0x0.0p+0', '0x1.9ca8800000000p+17', '0x0.0p+0', '0x0.0p+0',
                               '0x1.8000000000000p+1', '0x0.0p+0'],
                              ['0x1.b4c8000000000p+14', '0x1.5054000000000p+14',
                               '0x1.770c000000000p+14', '0x1.7b98000000000p+14',
                               '0x1.d478000000000p+14', '0x1.9e3c000000000p+14',
                               '0x1.9d04000000000p+14', '0x1.ddcc000000000p+14']],
 ('krylov_march', 'block2'): ['7c47ab79ee195e977c2299879b9c4c08ad976752752a9d8b3b2a833861340478',
                              ['0x1.8f96000000000p+15', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                               '0x0.0p+0', '0x1.5951c00000000p+18', '0x0.0p+0', '0x0.0p+0',
                               '0x1.8000000000000p+1', '0x0.0p+0'],
                              ['0x1.6548000000000p+15', '0x1.1946000000000p+15',
                               '0x1.355a000000000p+15', '0x1.416c000000000p+15',
                               '0x1.8108000000000p+15', '0x1.69ce000000000p+15',
                               '0x1.5ace000000000p+15', '0x1.8f96000000000p+15']],
 ('krylov_march', 'block2-rcm'): ['9ebb24bf7a42ad8a0689d1bb62d9632544d3502d04476bffa3d1c57775081dce',
                                  ['0x1.8b8e000000000p+15', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                                   '0x0.0p+0', '0x1.50edc00000000p+18', '0x0.0p+0', '0x0.0p+0',
                                   '0x1.8000000000000p+1', '0x0.0p+0'],
                                  ['0x1.599c000000000p+15', '0x1.1d8a000000000p+15',
                                   '0x1.2b82000000000p+15', '0x1.3cbc000000000p+15',
                                   '0x1.6f8c000000000p+15', '0x1.59ae000000000p+15',
                                   '0x1.5342000000000p+15', '0x1.8b8e000000000p+15']],
 ('krylov_march', 'schur1'): ['9a117f3d39f82ab27330b0a13b27635cdc63e4774fd689a2345b0e22d9d0f366',
                              ['0x1.ad3ba00000000p+19', '0x1.2600000000000p+8',
                               '0x1.83d8000000000p+16', '0x1.0800000000000p+6',
                               '0x1.0800000000000p+9', '0x1.53c18c0000000p+22',
                               '0x1.a400000000000p+10', '0x1.2558000000000p+19',
                               '0x1.3200000000000p+7', '0x0.0p+0'],
                              ['0x1.68a9800000000p+19', '0x1.0f1d600000000p+19',
                               '0x1.24a7600000000p+19', '0x1.4ee6000000000p+19',
                               '0x1.65f0000000000p+19', '0x1.71eee00000000p+19',
                               '0x1.7383e00000000p+19', '0x1.6755600000000p+19']],
 ('krylov_march', 'schur2'): ['298b2d46bfa08da7725d8970421e051ea7d9f2193e9fee6953ad09e74b042bf5',
                              ['0x1.779f600000000p+19', '0x1.2600000000000p+8',
                               '0x1.83d8000000000p+16', '0x1.0800000000000p+6',
                               '0x1.0800000000000p+9', '0x1.437fcc0000000p+22',
                               '0x1.a400000000000p+10', '0x1.2558000000000p+19',
                               '0x1.3200000000000p+7', '0x0.0p+0'],
                              ['0x1.612f800000000p+19', '0x1.05a3200000000p+19',
                               '0x1.1e09e00000000p+19', '0x1.267b600000000p+19',
                               '0x1.7166600000000p+19', '0x1.55acc00000000p+19',
                               '0x1.4171400000000p+19', '0x1.6822200000000p+19']],
 ('mp_ranks', 'block1'): ['c39b35c1f256766ba3194437b9f124e576884b52493ed043e32abab8cc9ebe4a',
                          ['0x1.0ac2800000000p+17', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                           '0x1.fe9d800000000p+17', '0x0.0p+0', '0x0.0p+0', '0x1.8000000000000p+1',
                           '0x0.0p+0'],
                          ['0x1.0ac2800000000p+17', '0x1.e7b6000000000p+16']],
 ('mp_ranks', 'block2'): ['245aa9083c0ec875eaee040f950f16758352787f58df4cc5590392a12da5cc85',
                          ['0x1.13f3a00000000p+19', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                           '0x1.07a1b00000000p+20', '0x0.0p+0', '0x0.0p+0', '0x1.8000000000000p+1',
                           '0x0.0p+0'],
                          ['0x1.13f3a00000000p+19', '0x1.f69f800000000p+18']],
 ('mp_ranks', 'block2-rcm'): ['784c545cccbb3775f000702f5f09164c8a4b2806d956e1a9740b5aab681e90d5',
                              ['0x1.fcb8400000000p+18', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                               '0x0.0p+0', '0x1.e4f5600000000p+19', '0x0.0p+0', '0x0.0p+0',
                               '0x1.8000000000000p+1', '0x0.0p+0'],
                              ['0x1.fcb8400000000p+18', '0x1.cd32800000000p+18']],
 ('mp_ranks', 'schur1'): ['8dbd7f6e4aa769c2d08c2dd99a4fbbb741e7e6a5a531283a80d5ef4e8852731a',
                          ['0x1.30bb2e0000000p+23', '0x1.5000000000000p+5', '0x1.18e0000000000p+15',
                           '0x1.0800000000000p+6', '0x1.0800000000000p+9', '0x1.232e230000000p+24',
                           '0x1.5000000000000p+6', '0x1.18e0000000000p+16', '0x1.3200000000000p+7',
                           '0x0.0p+0'],
                          ['0x1.30bb2e0000000p+23', '0x1.15a1180000000p+23']],
 ('mp_ranks', 'schur2'): ['e8d67cf38e8582d3696bfc10651cde43210a347b95ae597095694b39e44c161c',
                          ['0x1.e4dd180000000p+21', '0x1.5000000000000p+5', '0x1.18e0000000000p+15',
                           '0x1.0800000000000p+6', '0x1.0800000000000p+9', '0x1.cdf5800000000p+22',
                           '0x1.5000000000000p+6', '0x1.18e0000000000p+16', '0x1.3200000000000p+7',
                           '0x0.0p+0'],
                          ['0x1.e4dd180000000p+21', '0x1.b70de80000000p+21']],
 ('service_closed', 'block1'): ['57a7787d89a42fa6b89299b91714fd4d95f442656cb37ac3687fe09bf9549284',
                                ['0x1.fd40000000000p+11', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                                 '0x0.0p+0', '0x1.8d38000000000p+13', '0x0.0p+0', '0x0.0p+0',
                                 '0x1.8000000000000p+1', '0x0.0p+0'],
                                ['0x1.bc00000000000p+11', '0x1.fd40000000000p+11',
                                 '0x1.9020000000000p+11', '0x1.d700000000000p+10']],
 ('service_closed', 'block2'): ['c07173cefd1c1c796548374671537a6341d0bba6d376dd8017c34b648d155836',
                                ['0x1.cb90000000000p+13', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                                 '0x0.0p+0', '0x1.5312000000000p+15', '0x0.0p+0', '0x0.0p+0',
                                 '0x1.8000000000000p+1', '0x0.0p+0'],
                                ['0x1.8ed0000000000p+13', '0x1.cb90000000000p+13',
                                 '0x1.5828000000000p+13', '0x1.3380000000000p+12']],
 ('service_closed', 'block2-rcm'): ['2dc70d686fcbd385d63876c438728567000566a3baabbc4d2e1b941b6a4e1fda',
                                    ['0x1.2450000000000p+13', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                                     '0x0.0p+0', '0x1.c4c4000000000p+14', '0x0.0p+0', '0x0.0p+0',
                                     '0x1.8000000000000p+1', '0x0.0p+0'],
                                    ['0x1.0d40000000000p+13', '0x1.2450000000000p+13',
                                     '0x1.f7d0000000000p+12', '0x1.7040000000000p+11']],
 ('service_closed', 'schur1'): ['d380d5c671865df326fcf96b33c923dcbf96abae05536a7c0fa4ccdfec9c4ffc',
                                ['0x1.6e93000000000p+17', '0x1.f800000000000p+6',
                                 '0x1.2b40000000000p+14', '0x1.0800000000000p+6',
                                 '0x1.0800000000000p+9', '0x1.2a18e00000000p+19',
                                 '0x1.a400000000000p+8', '0x1.c620000000000p+15',
                                 '0x1.3200000000000p+7', '0x0.0p+0'],
                                ['0x1.535d000000000p+17', '0x1.63f2000000000p+17',
                                 '0x1.5028800000000p+17', '0x1.41d8000000000p+16']],
 ('service_closed', 'schur2'): ['dd5d055d3f182828c7af8a1ecae2c38717a2848223608230d2af05b3b7747dc1',
                                ['0x1.ece7000000000p+16', '0x1.f800000000000p+6',
                                 '0x1.2b40000000000p+14', '0x1.0800000000000p+6',
                                 '0x1.0800000000000p+9', '0x1.6080000000000p+18',
                                 '0x1.a400000000000p+8', '0x1.c620000000000p+15',
                                 '0x1.3200000000000p+7', '0x0.0p+0'],
                                ['0x1.8ba6000000000p+16', '0x1.ece7000000000p+16',
                                 '0x1.4b83000000000p+16', '0x1.7be0000000000p+15']],
 ('setup_bound', 'block1'): ['23c64edf90fb16b8dcb670d5213d4c798e915b00c8725712613f7e75e9b4d9a3',
                             ['0x1.0cc8000000000p+14', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                              '0x0.0p+0', '0x1.a565000000000p+16', '0x0.0p+0', '0x0.0p+0',
                              '0x1.8000000000000p+1', '0x0.0p+0'],
                             ['0x1.05d8000000000p+14', '0x1.8108000000000p+13',
                              '0x1.ad18000000000p+13', '0x1.5930000000000p+13',
                              '0x1.0cc8000000000p+14', '0x1.2978000000000p+13',
                              '0x1.5828000000000p+13', '0x1.fcf8000000000p+13']],
 ('setup_bound', 'block2'): ['302cd91bc432ef482bceed1a085576738631b362b8719083b7083e482128d58f',
                             ['0x1.188c000000000p+15', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                              '0x0.0p+0', '0x1.b136800000000p+17', '0x0.0p+0', '0x0.0p+0',
                              '0x1.8000000000000p+1', '0x0.0p+0'],
                             ['0x1.15bc000000000p+15', '0x1.8684000000000p+14',
                              '0x1.b864000000000p+14', '0x1.5be8000000000p+14',
                              '0x1.188c000000000p+15', '0x1.2ef4000000000p+14',
                              '0x1.5ffc000000000p+14', '0x1.01b2000000000p+15']],
 ('setup_bound', 'block2-rcm'): ['04e9e21941da980422fd44ec78ebabc9e4580544bd5f3a1052c2762cf0886c4e',
                                 ['0x1.2414000000000p+15', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                                  '0x0.0p+0', '0x1.b72a800000000p+17', '0x0.0p+0', '0x0.0p+0',
                                  '0x1.8000000000000p+1', '0x0.0p+0'],
                                 ['0x1.15f8000000000p+15', '0x1.815c000000000p+14',
                                  '0x1.ba74000000000p+14', '0x1.7058000000000p+14',
                                  '0x1.2414000000000p+15', '0x1.18bc000000000p+14',
                                  '0x1.6e3c000000000p+14', '0x1.090e000000000p+15']],
 ('setup_bound', 'schur1'): ['6b3c220433224987a98436a71f550b3eccbcaf80cfc73ad72fd072d4cce68a42',
                             ['0x1.1c7f000000000p+19', '0x1.2600000000000p+8',
                              '0x1.83d8000000000p+16', '0x1.0800000000000p+6',
                              '0x1.0800000000000p+9', '0x1.a45a480000000p+21',
                              '0x1.a400000000000p+10', '0x1.2558000000000p+19',
                              '0x1.3200000000000p+7', '0x0.0p+0'],
                             ['0x1.0a92800000000p+19', '0x1.7ddd400000000p+18',
                              '0x1.8e31c00000000p+18', '0x1.780b000000000p+18',
                              '0x1.f36e000000000p+18', '0x1.4d44400000000p+18',
                              '0x1.843ec00000000p+18', '0x1.c4a2400000000p+18']],
 ('setup_bound', 'schur2'): ['e3173bfa7eff77a446737c3d6f1745f43c837f9948285a8d9f21fc8fa4dd0945',
                             ['0x1.2787200000000p+19', '0x1.2600000000000p+8',
                              '0x1.83d8000000000p+16', '0x1.0800000000000p+6',
                              '0x1.0800000000000p+9', '0x1.a183400000000p+21',
                              '0x1.a400000000000p+10', '0x1.2558000000000p+19',
                              '0x1.3200000000000p+7', '0x0.0p+0'],
                             ['0x1.2388200000000p+19', '0x1.8054000000000p+18',
                              '0x1.a4ee800000000p+18', '0x1.2395400000000p+18',
                              '0x1.134c600000000p+19', '0x1.debf000000000p+17',
                              '0x1.5660c00000000p+18', '0x1.07ec800000000p+19']],
 ('table_sweep', 'block1'): ['f76a49731ea1c084516206a82f3847bbb2e1907f64df058e8715236cb023537f',
                             ['0x1.0d70000000000p+13', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                              '0x0.0p+0', '0x1.d1ae000000000p+15', '0x0.0p+0', '0x0.0p+0',
                              '0x1.8000000000000p+1', '0x0.0p+0'],
                             ['0x1.ea20000000000p+12', '0x1.0470000000000p+13',
                              '0x1.8ab0000000000p+12', '0x1.3c80000000000p+12',
                              '0x1.f6e0000000000p+12', '0x1.ef30000000000p+12',
                              '0x1.0d70000000000p+13', '0x1.d250000000000p+12']],
 ('table_sweep', 'block2'): ['6b17fd9186f5e00ced46a8bd90fcbdaed49785f0fb910a0ad3be4a61726ec563',
                             ['0x1.f1e8000000000p+14', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                              '0x0.0p+0', '0x1.a227800000000p+17', '0x0.0p+0', '0x0.0p+0',
                              '0x1.8000000000000p+1', '0x0.0p+0'],
                             ['0x1.cd10000000000p+14', '0x1.d5f8000000000p+14',
                              '0x1.62cc000000000p+14', '0x1.fda0000000000p+13',
                              '0x1.d2b0000000000p+14', '0x1.ae14000000000p+14',
                              '0x1.f1e8000000000p+14', '0x1.99ec000000000p+14']],
 ('table_sweep', 'block2-rcm'): ['91fa3809143351dd87133a764ef5ca379880f94dd457fa5e19c8a6d954a09010',
                                 ['0x1.8b28000000000p+14', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
                                  '0x0.0p+0', '0x1.32ca800000000p+17', '0x0.0p+0', '0x0.0p+0',
                                  '0x1.8000000000000p+1', '0x0.0p+0'],
                                 ['0x1.6b90000000000p+14', '0x1.3218000000000p+14',
                                  '0x1.13dc000000000p+14', '0x1.46a0000000000p+13',
                                  '0x1.74f0000000000p+14', '0x1.2504000000000p+14',
                                  '0x1.8b28000000000p+14', '0x1.1c64000000000p+14']],
 ('table_sweep', 'schur1'): ['8d65fef36d105003e885607ebd70fab75135cfca5c8fc3624d5d23e4143dcebd',
                             ['0x1.f0fd400000000p+18', '0x1.a400000000000p+7',
                              '0x1.2de0000000000p+15', '0x1.0800000000000p+6',
                              '0x1.0800000000000p+9', '0x1.7d71580000000p+21',
                              '0x1.2600000000000p+10', '0x1.7958000000000p+17',
                              '0x1.3200000000000p+7', '0x0.0p+0'],
                             ['0x1.9a19000000000p+18', '0x1.6ec4800000000p+18',
                              '0x1.6677c00000000p+18', '0x1.caeb000000000p+17',
                              '0x1.b2bb000000000p+18', '0x1.abfd400000000p+18',
                              '0x1.d3d9000000000p+18', '0x1.642ec00000000p+18']],
 ('table_sweep', 'schur2'): ['9861ca7c5015afa82f90efee43aca2512bd765f9920ec6efcd3bd362a09252a0',
                             ['0x1.0818000000000p+18', '0x1.a400000000000p+7',
                              '0x1.2de0000000000p+15', '0x1.0800000000000p+6',
                              '0x1.0800000000000p+9', '0x1.adbf400000000p+20',
                              '0x1.2600000000000p+10', '0x1.7958000000000p+17',
                              '0x1.3200000000000p+7', '0x0.0p+0'],
                             ['0x1.e92b800000000p+17', '0x1.026f000000000p+18',
                              '0x1.32c4800000000p+17', '0x1.14a9800000000p+17',
                              '0x1.e961800000000p+17', '0x1.9d20800000000p+17',
                              '0x1.f6f6800000000p+17', '0x1.bb0a000000000p+17']]}


@functools.lru_cache(maxsize=None)
def _distributed(workload):
    key, size, nparts = TUPLES[workload]
    case = build_case(key, size)
    pm = PartitionMap(case.coupling_graph, case.membership(nparts, seed=0), num_ranks=nparts)
    return case, distribute_matrix(case.matrix, pm)


def measure(workload, precond):
    case, dmat = _distributed(workload)
    name, params = PRECONDS[precond]
    comm = Communicator(dmat.pm.num_ranks)
    try:
        m = make_preconditioner(name, dmat, comm, case, params)
        comm.reset_ledger()
        r = np.random.default_rng(20).standard_normal(dmat.pm.layout.total)
        z = m.apply(r)
        # the first apply probes the compiled sweeps, the next two ride them
        assert all(np.array_equal(m.apply(r), z) for _ in range(2))
        ledger = comm.ledger
        return [
            hashlib.sha256(z.tobytes()).hexdigest(),
            [float(getattr(ledger, f)).hex() for f in COUNT_FIELDS],
            [float(v).hex() for v in ledger.per_rank_flops],
        ]
    finally:
        comm.close()


@pytest.mark.parametrize("workload,precond", sorted(GOLDEN))
def test_apply_matches_golden(workload, precond):
    assert measure(workload, precond) == GOLDEN[(workload, precond)]
