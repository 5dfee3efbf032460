"""Sparse-matrix kernels.

Built on :mod:`scipy.sparse` CSR storage (per the HPC guides: prefer scipy
sparse arrays and vectorized kernels).  Everything algorithmic — triangular
solves, 2x2 block splitting of subdomain matrices, permutations — is
implemented here from scratch.
"""

from repro.sparse.csr import (
    csr_from_coo,
    csr_row,
    diag_indices_csr,
    is_sorted_csr,
    nnz_per_row,
    spmv,
)
from repro.sparse.triangular import (
    TriangularFactor,
    solve_lower_unit,
    solve_upper,
)
from repro.sparse.blocksplit import BlockSplit, split_2x2
from repro.sparse.reorder import (
    apply_symmetric_permutation,
    inverse_permutation,
    permute_vector,
)
from repro.sparse.errors import SparseFormatError
from repro.sparse.io import load_csr_npz, save_csr_npz
from repro.sparse.matrixmarket import load_matrix_market, save_matrix_market

__all__ = [
    "csr_from_coo",
    "csr_row",
    "diag_indices_csr",
    "is_sorted_csr",
    "nnz_per_row",
    "spmv",
    "TriangularFactor",
    "solve_lower_unit",
    "solve_upper",
    "BlockSplit",
    "split_2x2",
    "apply_symmetric_permutation",
    "inverse_permutation",
    "permute_vector",
    "SparseFormatError",
    "load_csr_npz",
    "save_csr_npz",
    "load_matrix_market",
    "save_matrix_market",
]
