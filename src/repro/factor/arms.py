"""Two-level Algebraic Recursive Multilevel Solver (ARMS).

Per the paper (Sec. 2, Fig. 2) and Saad & Suchomel's ARMS report: on each
subdomain, a *group-independent set* reordering moves mutually-uncoupled
groups of internal unknowns to the front.  The permuted subdomain matrix

        P A_i P^T = [[D, F̃], [Ẽ, C̃]]

then has a block-diagonal leading block D (one small dense block per group,
eliminated exactly), and the trailing block couples the *expanded interface*:
the local interfaces separating the groups plus the interdomain interface.
The expanded Schur complement Ŝ = C̃ − Ẽ D^{-1} F̃ is formed with row-relative
dropping; its ILU(0) factorization is the local piece of the distributed
ILU(0) preconditioner Schur 2 applies to the global expanded Schur system.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.factor.ilu0 import ilu0
from repro.graph.adjacency import graph_from_matrix
from repro.resilience.errors import FactorizationBreakdown
from repro.graph.independent_sets import find_group_independent_sets
from repro.kernels.apply import csr_matvec
from repro.kernels.band import counts_to_indptr, csr_row_ids
from repro.sparse.csr import drop_small
from repro.sparse.reorder import apply_symmetric_permutation, inverse_permutation
from repro.utils.validation import check_square, ensure_csr


def _invert_group_blocks(
    d: sp.csr_matrix, group_ptr: np.ndarray, shift: float
) -> sp.csr_matrix:
    """D^{-1} for the block-diagonal D whose group k is ``group_ptr[k:k+2]``.

    One pass over D's CSR arrays scatters every entry into its group's dense
    block (groups are mutually uncoupled, so every entry has one), the
    blocks are inverted batched by size, and the inverses are assembled
    directly as CSR, exact zeros not stored.
    """
    sizes = np.diff(group_ptr)
    ng = int(group_ptr[-1])
    starts = counts_to_indptr(sizes * sizes)
    group = np.repeat(np.arange(sizes.size), sizes)
    # entry (r, c) of D lives at base[r] + c in the concatenated blocks
    base = starts[group] + (np.arange(ng) - group_ptr[group]) * sizes[group] - group_ptr[group]
    blocks = np.zeros(starts[-1])
    blocks[base[csr_row_ids(ng, d.indptr)] + d.indices] = d.data
    inverses = np.empty_like(blocks)
    try:
        for s in np.unique(sizes).tolist():
            pos = starts[:-1][sizes == s][:, None] + np.arange(s * s)
            inverses[pos] = np.linalg.inv(blocks[pos].reshape(-1, s, s)).reshape(-1, s * s)
    except np.linalg.LinAlgError:
        for k, (lo, s) in enumerate(zip(starts.tolist(), sizes.tolist())):
            try:
                np.linalg.inv(blocks[lo: lo + s * s].reshape(s, s))
            except np.linalg.LinAlgError as exc:
                raise FactorizationBreakdown(
                    f"ARMS group block {k} is singular", group=k, size=s, shift=shift,
                ) from exc
        raise
    rows = np.repeat(np.arange(ng), sizes[group])
    keep = np.flatnonzero(inverses)
    indptr = counts_to_indptr(np.bincount(rows[keep], minlength=ng))
    cols = keep - base[rows[keep]]
    return sp.csr_matrix((inverses[keep], cols, indptr), shape=(ng, ng))


class ArmsFactorization:
    """Two-level ARMS factorization of one subdomain matrix.

    Parameters
    ----------
    a_local:
        Owned square subdomain matrix in [internal; interface] order.
    n_internal:
        Number of internal unknowns (only these may join groups; interdomain
        interface unknowns always stay in the expanded interface).
    group_size:
        Maximum unknowns per independent group.
    drop_tol:
        Row-relative drop tolerance for the approximate expanded Schur.
    seed:
        RNG seed for the greedy group search (partitioning sensitivity).
    """

    def __init__(
        self,
        a_local: sp.csr_matrix,
        n_internal: int,
        group_size: int = 20,
        drop_tol: float = 1e-4,
        seed: int | np.random.Generator | None = 0,
        levels: int = 2,
        min_coarse_size: int = 64,
        shift: float = 0.0,
        breakdown_frac: float | None = None,
    ) -> None:
        a_local = ensure_csr(a_local)
        check_square(a_local, "a_local")
        n = a_local.shape[0]
        if not 0 <= n_internal <= n:
            raise ValueError("n_internal out of range")
        if levels < 2:
            raise ValueError("levels must be >= 2")
        if shift and n:
            # the post-breakdown remedy: factor A + shift·I instead of A
            a_local = ensure_csr((a_local + shift * sp.eye(n, format="csr")).tocsr())
        self.shift = shift
        self.breakdown_frac = breakdown_frac

        with obs.span("setup.independent_sets", n=n):
            gis = find_group_independent_sets(
                graph_from_matrix(a_local),
                max_group_size=group_size,
                candidates=np.arange(n_internal, dtype=np.int64),
                seed=seed,
            )
        self.n = n
        self.n_internal = n_internal
        self.gis = gis
        self.perm = gis.permutation  # ARMS index -> original local index
        self.inv_perm = inverse_permutation(self.perm)
        ng = gis.num_grouped
        self.n_grouped = ng
        self.n_expanded = n - ng  # expanded interface size

        ap = apply_symmetric_permutation(a_local, self.perm)
        self.D = ensure_csr(ap[:ng, :ng])
        self.F = ensure_csr(ap[:ng, ng:])
        self.E = ensure_csr(ap[ng:, :ng])
        self.C = ensure_csr(ap[ng:, ng:])

        # exact inverse of every (small) group block, as one explicit
        # block-diagonal matrix for vectorized application
        with obs.span("setup.block_inverses", groups=len(gis.group_ptr) - 1):
            self.d_inv = _invert_group_blocks(self.D, gis.group_ptr, shift)

        # approximate expanded Schur complement with dropping
        if ng:
            exact = self.C - self.E @ self.d_inv @ self.F
        else:
            exact = self.C
        self.s_hat = drop_small(ensure_csr(exact.tocsr()), drop_tol)
        # the distributed-ILU(0) local factor on the expanded Schur block
        self.s_ilu = (
            ilu0(self.s_hat, breakdown_frac=breakdown_frac)
            if self.n_expanded
            else None
        )

        # expanded-interface bookkeeping (original local indices); the
        # separator is sorted, so local-interface unknowns (< n_internal)
        # precede interdomain-interface unknowns automatically
        self.separator_local = gis.separator
        self.n_interdomain = int(np.count_nonzero(gis.separator >= n_internal))
        self.n_local_interface = self.n_expanded - self.n_interdomain

        # multilevel recursion (Saad & Suchomel's full ARMS; the paper's
        # configuration is the two-level case): the expanded Schur complement
        # is itself ARMS-factored, keeping the interdomain interface in the
        # separator at every level so the trailing block survives to the
        # coarsest level for Schur 2's global iterations
        self.child: ArmsFactorization | None = None
        if (
            levels > 2
            and self.n_local_interface > 0
            and self.n_expanded > min_coarse_size
        ):
            self.child = ArmsFactorization(
                self.s_hat,
                n_internal=self.n_local_interface,
                group_size=group_size,
                drop_tol=drop_tol,
                seed=seed,
                levels=levels - 1,
                min_coarse_size=min_coarse_size,
                breakdown_frac=breakdown_frac,
            )
            if self.child.n_grouped == 0:
                self.child = None  # recursion made no progress; stop here

    # -- vector plumbing -----------------------------------------------------

    def split(self, r_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Permute a local vector into ARMS order and split (grouped, expanded)."""
        w = np.asarray(r_local)[self.perm]
        return w[: self.n_grouped], w[self.n_grouped :]

    def join(self, u_grouped: np.ndarray, y_expanded: np.ndarray) -> np.ndarray:
        """Assemble a local vector (original order) from ARMS-order parts."""
        w = np.concatenate([u_grouped, y_expanded])
        return w[self.inv_perm]

    # -- the three stages of Algorithm 2.1, expanded variant -----------------

    def solve_d(self, f: np.ndarray) -> np.ndarray:
        """Exact solve with the block-diagonal grouped block D."""
        return csr_matvec(self.d_inv, f)

    def forward_eliminate(self, r_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Step 1: ĝ = g − Ẽ D^{-1} f.  Returns (f, ĝ) in ARMS order."""
        f, g = self.split(r_local)
        if self.n_grouped:
            g = g - csr_matvec(self.E, self.solve_d(f))
        return f, g

    def back_substitute(self, f: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Step 3: u = D^{-1}(f − F̃ y); returns the local vector in original order."""
        if self.n_grouped:
            u = self.solve_d(f - csr_matvec(self.F, y))
        else:
            u = f
        return self.join(u, y)

    def solve_s_ilu(self, g: np.ndarray) -> np.ndarray:
        """One ILU(0) solve on the expanded Schur block (Step 2 preconditioner)."""
        if self.s_ilu is None:
            return g.copy()
        return self.s_ilu.solve(g)

    def solve(self, r_local: np.ndarray) -> np.ndarray:
        """Full approximate subdomain solve A_i^{-1} r (ARMS as a preconditioner)."""
        f, g = self.forward_eliminate(r_local)
        if self.child is not None:
            y = self.child.solve(g)
        else:
            y = self.solve_s_ilu(g)
        return self.back_substitute(f, y)

    # -- multilevel (cascaded) interface -------------------------------------
    #
    # ``final_*`` expose the coarsest level's expanded Schur system so the
    # Schur 2 preconditioner is written once for any recursion depth; for the
    # paper's two-level configuration they degenerate to the level-one views.

    @property
    def final(self) -> "ArmsFactorization":
        """The coarsest level of the recursion."""
        return self if self.child is None else self.child.final

    @property
    def num_levels(self) -> int:
        return 2 if self.child is None else 1 + self.child.num_levels

    @property
    def final_s_hat(self) -> sp.csr_matrix:
        return self.final.s_hat

    @property
    def final_n_expanded(self) -> int:
        return self.final.n_expanded

    @property
    def final_n_local_interface(self) -> int:
        return self.final.n_local_interface

    @property
    def final_n_interdomain(self) -> int:
        return self.final.n_interdomain

    def forward_eliminate_full(
        self, r_local: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        """Cascade step 1 through every level; returns (per-level f stack, ĝ)."""
        f, g = self.forward_eliminate(r_local)
        if self.child is None:
            return [f], g
        stack, g_final = self.child.forward_eliminate_full(g)
        return [f, *stack], g_final

    def back_substitute_full(
        self, f_stack: list[np.ndarray], y_final: np.ndarray
    ) -> np.ndarray:
        """Cascade step 3 back up through every level."""
        if self.child is None:
            (f,) = f_stack
            return self.back_substitute(f, y_final)
        y = self.child.back_substitute_full(f_stack[1:], y_final)
        return self.back_substitute(f_stack[0], y)

    def final_solve_s_ilu(self, g: np.ndarray) -> np.ndarray:
        return self.final.solve_s_ilu(g)

    def forward_full_flops(self) -> float:
        f = self.forward_flops()
        return f if self.child is None else f + self.child.forward_full_flops()

    def back_full_flops(self) -> float:
        f = self.back_flops()
        return f if self.child is None else f + self.child.back_full_flops()

    # -- cost model ------------------------------------------------------------

    def solve_d_flops(self) -> float:
        return 2.0 * self.d_inv.nnz

    def forward_flops(self) -> float:
        return self.solve_d_flops() + 2.0 * self.E.nnz

    def back_flops(self) -> float:
        return self.solve_d_flops() + 2.0 * self.F.nnz

    def solve_s_flops(self) -> float:
        return 0.0 if self.s_ilu is None else self.s_ilu.solve_flops()

    def solve_flops(self) -> float:
        return self.forward_flops() + self.solve_s_flops() + self.back_flops()


def arms_factor(
    a_local: sp.csr_matrix,
    n_internal: int,
    group_size: int = 20,
    drop_tol: float = 1e-4,
    seed: int | np.random.Generator | None = 0,
    levels: int = 2,
) -> ArmsFactorization:
    """Convenience constructor mirroring :func:`ilu0` / :func:`ilut`."""
    return ArmsFactorization(
        a_local,
        n_internal,
        group_size=group_size,
        drop_tol=drop_tol,
        seed=seed,
        levels=levels,
    )
