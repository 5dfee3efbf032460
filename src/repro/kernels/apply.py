"""Tier dispatch for the apply-phase kernels (triangular sweeps, matvec).

The apply hot path reuses the factor-kernel tier policy
(:func:`repro.kernels.get_tier` / :func:`~repro.kernels.forced_tier`) with
the same names and the same bit-compatibility contract:

* ``"reference"`` — the interpreted scalar loops in
  :mod:`repro.kernels.applyspec`.
* ``"numpy"`` — both unit sweeps of one preconditioner application
  executed by a single call into scipy's compiled SuperLU ``gstrs``
  routine.  Its column-oriented substitution performs, per unknown, the
  identical sequence of multiply-subtract operations as the row-oriented
  spec (ascending column order forward, descending backward — see
  :mod:`repro.kernels.applyspec`), so the result is bitwise identical.
  Because that identity rests on an external library's implementation
  detail, it is *probe-verified*: the first application through each
  prepared factor is recomputed with the interpreted spec and compared
  bitwise; any mismatch drops that factor to the spec loops for good and
  emits an ``apply.probe_mismatch`` observability event.  The spec loops
  are also the fallback when SuperLU's private module moves or a factor
  overflows its C-int index arrays.

Matvec: scipy's compiled CSR product accumulates each row left-to-right
into a scalar, matching ``applyspec.csr_matvec`` bitwise, so the numpy
tier calls that routine directly (:func:`compiled_matvec`: what ``A @ x``
ends in, without the operator dispatch in front of it).

Everything that is block-diagonal over ranks — the subdomain factors, the
Schur blocks — is applied *stacked*: :func:`stack_csr` concatenates the
per-rank triangles into one operator and one :class:`UnitSweeps` /
one product serves all ranks.  Stacking keeps every row's storage order
and every unknown's multiply-subtract sequence, so the bits cannot move;
the probe runs once per stacked sweep.

All sweeps here solve *unit* triangles.  Non-unit diagonals are handled by
the factor objects (column-scale the strict triangle by ``invd`` at
preparation time, multiply the sweep output by ``invd`` afterwards), so
both tiers share one elementwise scaling and the sweeps never divide.
"""

from __future__ import annotations

import importlib
import threading
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro import kernels, obs  # kernels: mid-import here, used at call time only

from . import applyspec
from .band import counts_to_indptr

# SuperLU's index arrays are C ints; fall back rather than overflow
_INTC_MAX = np.iinfo(np.intc).max

_compiled: dict[str, object] = {}


def _compiled_module(path: str, entry: str):
    """A private compiled scipy module that still has ``entry``, or ``None``."""
    if path not in _compiled:
        try:
            mod = importlib.import_module(path)
            _compiled[path] = mod if hasattr(mod, entry) else None
        except Exception:
            _compiled[path] = None
    return _compiled[path]


def _superlu():
    """scipy's private compiled SuperLU module, or ``None``."""
    return _compiled_module("scipy.sparse.linalg._dsolve._superlu", "gstrs")


def _sparsetools():
    """scipy's private compiled sparse-kernel module, or ``None``."""
    return _compiled_module("scipy.sparse._sparsetools", "csr_matvec")


def superlu_available() -> bool:
    """True when the compiled ``gstrs`` entry point is importable."""
    return _superlu() is not None


def resolve_tier() -> str:
    """The apply-phase tier: the forced kernel tier, else ``"numpy"``.

    One :func:`repro.kernels.forced_tier` pins the entire solve.  The
    compiled kernels carry no setup cost, so auto policy never picks the
    interpreted loops.
    """
    return kernels.get_tier() or "numpy"


# -- SuperLU slot preparation -------------------------------------------------


def _csc_slot(mat: sp.spmatrix):
    """CSC arrays ``(nnz, data, indices, indptr)`` for one gstrs slot."""
    csc = sp.csc_matrix(mat)
    csc.sort_indices()
    if csc.nnz > _INTC_MAX or csc.shape[0] > _INTC_MAX:
        return None
    return (
        int(csc.nnz),
        np.ascontiguousarray(csc.data, dtype=np.float64),
        np.ascontiguousarray(csc.indices, dtype=np.intc),
        np.ascontiguousarray(csc.indptr, dtype=np.intc),
    )


def _gstrs_slots(n: int, lower: sp.csr_matrix | None, upper: sp.csr_matrix | None):
    """gstrs ``(lslot, uslot)`` arrays for ``(I + L)(I + U)``, or ``None``.

    gstrs expects the L factor as a CSC unit-lower matrix *with* its
    diagonal present; the U factor's diagonal is implicit.  Passing the
    conventions the other way round silently produces garbage.  A missing
    triangle is the identity L slot / the all-zero U slot.  ``None`` when
    gstrs is not importable or a slot overflows its C-int index arrays.
    """
    if not superlu_available():
        return None
    eye = sp.eye(n, format="csc")
    lslot = _csc_slot(eye if lower is None else eye + lower)
    uslot = _csc_slot(sp.csc_matrix((n, n)) if upper is None else upper)
    if lslot is None or uslot is None:
        return None
    return lslot, uslot


def gstrs_sweeps(n: int, lslot, uslot, b: np.ndarray) -> np.ndarray:
    """Solve ``(I + L) (I + U) x = b`` with one compiled gstrs call.

    ``lslot``/``uslot`` come from :func:`_gstrs_slots`.  ``b`` is not
    mutated (gstrs overwrites its right-hand side, so a fresh copy is
    passed in).  Raises ``RuntimeError`` if gstrs reports failure.
    """
    mod = _superlu()
    if mod is None:
        raise RuntimeError("SuperLU gstrs is not available")
    lnnz, ldata, lind, lptr = lslot
    unnz, udata, uind, uptr = uslot
    rhs = np.array(b, dtype=np.float64, copy=True)
    x, info = mod.gstrs(
        "N", n, lnnz, ldata, lind, lptr, n, unnz, udata, uind, uptr, rhs
    )
    if info != 0:
        raise RuntimeError(f"SuperLU gstrs failed with info={info}")
    return np.asarray(x, dtype=np.float64)


# -- the sweeps of one prepared factor ----------------------------------------


class UnitSweeps:
    """Solve ``(I + L)(I + U) x = b`` for one prepared factor.

    ``lower`` / ``upper`` are strictly triangular CSR matrices with sorted
    indices; ``None`` stands for the identity, so a solo forward or
    backward sweep and the fused ILU apply are the same object.  On the
    numpy tier the first solve prepares the gstrs slots and probes them
    against the spec loops; this factor then stays on whichever path the
    probe chose.  The probe runs once however many threads share the
    object (a stack remembered by the factor cache is shared).
    """

    def __init__(
        self, n: int, lower: sp.csr_matrix | None, upper: sp.csr_matrix | None
    ) -> None:
        self.n = n
        self.lower = lower
        self.upper = upper
        self._slots: tuple = ()  # set before superlu_ok turns True
        # None = gstrs not tried yet; False = this factor runs the spec loops
        self.superlu_ok: bool | None = None
        self._probe_lock = threading.Lock()

    def spec(self, b: np.ndarray) -> np.ndarray:
        """Both sweeps through the interpreted scalar spec."""
        x = np.array(b, dtype=np.float64, copy=True)
        if self.lower is not None:
            t = self.lower
            applyspec.forward_unit(t.indptr, t.indices, t.data, x)
        if self.upper is not None:
            t = self.upper
            applyspec.backward_unit(t.indptr, t.indices, t.data, x)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Tier-dispatched solve; ``b`` is not mutated."""
        ok = self.superlu_ok
        if ok is False or resolve_tier() == "reference":
            return self.spec(b)
        if ok is None:
            with self._probe_lock:
                if self.superlu_ok is None:
                    return self._probe(b)
            return self.solve(b)  # another thread's probe decided meanwhile
        return gstrs_sweeps(self.n, self._slots[0], self._slots[1], b)

    def _probe(self, b: np.ndarray) -> np.ndarray:
        """First numpy-tier solve: gstrs must exist, fit C ints and
        reproduce the spec's bits, or this factor keeps to the spec."""
        x = self.spec(b)
        slots = _gstrs_slots(self.n, self.lower, self.upper)
        if slots is None:
            self.superlu_ok = False
            return x
        y = gstrs_sweeps(self.n, slots[0], slots[1], b)
        self._slots = slots
        self.superlu_ok = bool(np.array_equal(y, x))
        if not self.superlu_ok:
            if self.lower is not None and self.upper is not None:
                obs.event("apply.probe_mismatch", kernel="ilu_fused", n=self.n)
            else:
                obs.event(
                    "apply.probe_mismatch", kernel="triangular",
                    n=self.n, lower=self.upper is None,
                )
        return x


# -- rank stacking -------------------------------------------------------------


def stack_csr(blocks: Sequence[sp.csr_matrix]) -> sp.csr_matrix:
    """The block-diagonal CSR matrix of ``blocks``, by array concatenation.

    Blocks may be rectangular or empty.  Every row keeps its entries in the
    storage order it had (column indices are shifted, nothing is sorted or
    summed), so a product or sweep with the stack runs, row by row, the
    arithmetic of the per-block loop it replaces.  No COO round trip
    (``sp.block_diag``): set-up calls this for every stacked operator.
    """
    entry_ptr = counts_to_indptr(np.asarray([b.nnz for b in blocks], dtype=np.int64))
    col_ptr = counts_to_indptr(np.asarray([b.shape[1] for b in blocks], dtype=np.int64))
    indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64)]
        + [b.indptr[1:] + lo for b, lo in zip(blocks, entry_ptr)]
    )
    indices = np.concatenate(
        [np.empty(0, dtype=np.int64)]
        + [b.indices + lo for b, lo in zip(blocks, col_ptr)]
    )
    data = np.concatenate([np.empty(0)] + [b.data for b in blocks])
    return sp.csr_matrix(
        (data, indices, indptr), shape=(len(indptr) - 1, int(col_ptr[-1]))
    )


# -- matvec -------------------------------------------------------------------


def compiled_matvec(a: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``y = A x`` by scipy's compiled CSR routine, called directly.

    ``A @ x`` ends in exactly this call (``_sparsetools.csr_matvec`` into
    a zeroed output); what is skipped is the operator dispatch in front of
    it, which costs more than the product on subdomain-sized blocks.
    Anything but a float64 CSR matrix times a float64 1-D array of the
    right length — or a scipy whose private module moved — takes ``A @ x``.
    """
    mod = _sparsetools()
    m, n = a.shape
    if (
        mod is None
        or x.__class__ is not np.ndarray
        or x.shape != (n,)
        or x.dtype != np.float64
        or a.format != "csr"
        or a.data.dtype != np.float64
    ):
        return a @ x
    y = np.zeros(m)
    mod.csr_matvec(m, n, a.indptr, a.indices, a.data, x, y)
    return y


def csr_matvec(a: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """Tier-dispatched ``y = A x`` for a CSR operator.

    scipy's compiled CSR product performs each row's accumulation
    left-to-right into a scalar, exactly the spec's order, so the numpy
    tier is the library routine itself; the reference tier runs the spec
    loop.  Every hot-path product (the distributed matvec, the Schur
    operators, the inner solves) enters here, so forcing a tier pins all
    of them.
    """
    if resolve_tier() == "numpy":
        return compiled_matvec(a, x)
    xf = np.ascontiguousarray(x, dtype=np.float64)
    y = np.empty(a.shape[0], dtype=np.float64)
    return applyspec.csr_matvec(a.indptr, a.indices, a.data, xf, y)
