"""Golden cost ledger: one solve per paper preconditioner, exact to the bit.

The values were generated at the commit before ``CostLedger.add_phase``
learned to skip scalar-zero arguments (PR 17) and must never move: every
ledger field, the per-rank flops and the modelled seconds on the Linux
cluster feed the paper tables.  Three ranks, so a reassociated per-rank sum
would show.
"""

import pytest

from repro import CASE_BUILDERS, LINUX_CLUSTER, solve_case
from repro.perfmodel.costs import COUNT_FIELDS

# precond -> [iterations, sim_s, setup counts, setup per-rank flops,
#             solve counts, solve per-rank flops], floats as float.hex()
GOLDEN = {'block1': [24, '0x1.6ff7dc54ae0ddp-5',
            ['0x1.243999999999ap+10', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
             '0x1.5240205da40c6p+11', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
             '0x0.0p+0'],
            ['0x1.f9951033d91d3p+9', '0x1.243999999999ap+10', '0x1.06f83e0f83e10p+9'],
            ['0x1.adaa000000000p+16', '0x1.b000000000000p+6', '0x1.0080000000000p+14',
             '0x1.ee00000000000p+7', '0x1.ee00000000000p+10', '0x1.2412800000000p+18',
             '0x1.4400000000000p+8', '0x1.0e00000000000p+15', '0x1.4700000000000p+8',
             '0x0.0p+0'],
            ['0x1.9d4a000000000p+16', '0x1.adaa000000000p+16',
             '0x1.4556000000000p+16']],
 'block2': [21, '0x1.5b68f205a0d66p-5',
            ['0x1.9e73333333333p+12', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
             '0x1.a74939c273346p+13', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
             '0x0.0p+0'],
            ['0x1.5a177e613716ap+12', '0x1.9e73333333333p+12', '0x1.581f07c1f07c2p+10'],
            ['0x1.f322000000000p+16', '0x1.8000000000000p+6', '0x1.c800000000000p+13',
             '0x1.d600000000000p+7', '0x1.d600000000000p+10', '0x1.45d9400000000p+18',
             '0x1.2000000000000p+8', '0x1.e000000000000p+14', '0x1.3200000000000p+8',
             '0x0.0p+0'],
            ['0x1.dae5000000000p+16', '0x1.f322000000000p+16',
             '0x1.495e000000000p+16']],
 'schur1': [5, '0x1.1667762baa075p-5',
            ['0x1.9e73333333333p+12', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
             '0x1.a74939c273346p+13', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
             '0x0.0p+0'],
            ['0x1.5a177e613716ap+12', '0x1.9e73333333333p+12', '0x1.581f07c1f07c2p+10'],
            ['0x1.13aa000000000p+17', '0x1.5000000000000p+7', '0x1.8f00000000000p+14',
             '0x1.0800000000000p+7', '0x1.0800000000000p+10', '0x1.3300c00000000p+18',
             '0x1.f800000000000p+8', '0x1.a400000000000p+15', '0x1.2400000000000p+8',
             '0x0.0p+0'],
            ['0x1.e76d000000000p+16', '0x1.095a000000000p+17',
             '0x1.a3c4000000000p+15']],
 'schur2': [5, '0x1.131a5147e657cp-5',
            ['0x1.93a5555555550p+13', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
             '0x1.8fe2aaaaaaaa9p+14', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0',
             '0x0.0p+0'],
            ['0x1.93a5555555550p+13', '0x1.5550000000002p+13', '0x1.b67fffffffffep+10'],
            ['0x1.51df000000000p+16', '0x1.5000000000000p+7', '0x1.8f00000000000p+14',
             '0x1.0800000000000p+7', '0x1.0800000000000p+10', '0x1.886a000000000p+17',
             '0x1.f800000000000p+8', '0x1.a400000000000p+15', '0x1.2400000000000p+8',
             '0x0.0p+0'],
            ['0x1.1e0a000000000p+16', '0x1.422b000000000p+16',
             '0x1.613e000000000p+15']]}


@pytest.fixture(scope="module")
def case():
    return CASE_BUILDERS["tc1"](15)


@pytest.mark.parametrize("precond", sorted(GOLDEN))
def test_ledger_matches_golden(case, precond):
    out = solve_case(case, precond, nparts=3, seed=0)
    got = [out.iterations, float(out.sim_time(LINUX_CLUSTER)).hex()]
    for ledger in (out.setup_ledger, out.solve_ledger):
        got.append([float(getattr(ledger, f)).hex() for f in COUNT_FIELDS])
        got.append([float(v).hex() for v in ledger.per_rank_flops])
    assert got == GOLDEN[precond]
