"""F2: two-level group-independent sets (paper Fig. 2).

Regenerates the figure's content: on a two-subdomain partition, each
subdomain's unknowns split into group-independent-set interiors, local
interfaces, and interdomain interfaces — with the defining no-coupling
invariant asserted.
"""

from repro.cases.poisson2d import poisson2d_case
from repro.core import stages
from repro.factor.arms import ArmsFactorization
from repro.graph.adjacency import graph_from_matrix
from repro.graph.independent_sets import verify_group_independence

from common import emit, scaled_n


def test_fig2_group_independent_sets(benchmark):
    case = poisson2d_case(n=scaled_n(33))
    dmat = stages.distribute(case, 2)
    pm = dmat.pm

    def run():
        return [
            ArmsFactorization(dmat.owned_square[r], pm.subdomains[r].n_internal,
                              group_size=20, seed=0)
            for r in range(2)
        ]

    arms = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [f"{case.title} — group-independent sets (Fig. 2), P=2",
             f"{'rank':>5}{'groups':>8}{'grouped':>9}{'local ifc':>11}{'interdomain':>13}"]
    for r, fac in enumerate(arms):
        lines.append(
            f"{r:>5}{len(fac.gis.groups):>8}{fac.n_grouped:>9}"
            f"{fac.n_local_interface:>11}{fac.n_interdomain:>13}"
        )
    emit("F2-group-independent-sets", "\n".join(lines))

    for r, fac in enumerate(arms):
        g = graph_from_matrix(dmat.owned_square[r])
        assert verify_group_independence(g, fac.gis)  # Fig. 2's invariant
        assert fac.n_interdomain == pm.subdomains[r].n_interface
        assert fac.n_grouped > fac.n_expanded  # groups absorb the majority
