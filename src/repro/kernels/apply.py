"""Tier dispatch for the apply-phase kernels (triangular sweeps, matvec).

The apply hot path reuses the factor-kernel tier policy
(:func:`repro.kernels.get_tier` / :func:`~repro.kernels.forced_tier`) with
the same names and the same bit-compatibility contract:

* ``"reference"`` — the interpreted scalar loops in
  :mod:`repro.kernels.applyspec`.
* ``"numpy"`` — both unit sweeps of one preconditioner application in a
  single call into scipy's compiled SuperLU ``gstrs``, which gives each
  unknown the spec's multiply-subtracts in the spec's order, so the same
  bits (the argument: docs/algorithms.md, "Why gstrs is the spec").  What
  the argument cannot see, how scipy was compiled, :func:`gstrs_trusted`
  checks once per process; a mismatch, a moved private module or a C-int
  overflow runs the spec loops.

Matvec: scipy's compiled CSR product accumulates each row left-to-right
into a scalar, matching ``applyspec.csr_matvec`` bitwise, so the numpy
tier calls that routine directly (:func:`compiled_matvec`: what ``A @ x``
ends in, without the operator dispatch in front of it).

Everything that is block-diagonal over ranks — the subdomain factors, the
Schur blocks — is applied *stacked*: :func:`stack_csr` concatenates the
per-rank triangles into one operator and one :class:`UnitSweeps` /
one product serves all ranks.  Stacking keeps every row's storage order
and every unknown's multiply-subtract sequence, so the bits cannot move.

All sweeps here solve *unit* triangles.  Non-unit diagonals are handled by
the factor objects (column-scale the strict triangle by ``invd`` at
preparation time, multiply the sweep output by ``invd`` afterwards), so
both tiers share one elementwise scaling and the sweeps never divide.
"""

from __future__ import annotations

import importlib
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


def _slot(n: int, tri: sp.spmatrix | None, unit: bool):
    """CSC ``(nnz, data, indices, indptr)`` of one gstrs slot: the strict
    triangle ``tri`` (``None``: empty), with a unit diagonal at the head of
    each column if ``unit``; ``None`` past C ints.  The diagonal is inserted,
    not summed in: a sum drops stored zeros, whose products the spec
    subtracts (``-0.0 - 0.0 * -1.0`` is ``+0.0``)."""
    if tri is None:
        data, indices, indptr = np.empty(0), np.empty(0, np.intc), np.zeros(n + 1, np.intc)
    else:
        csc = tri.tocsc()
        csc.sort_indices()
        data, indices, indptr = csc.data, csc.indices, csc.indptr
    if unit:
        data = np.insert(data, indptr[:-1], 1.0)
        indices = np.insert(indices, indptr[:-1], np.arange(n))
        indptr = indptr + np.arange(n + 1)
    if data.size > _INTC_MAX or n > _INTC_MAX:
        return None
    return (
        int(data.size),
        np.ascontiguousarray(data, dtype=np.float64),
        np.ascontiguousarray(indices, dtype=np.intc),
        np.ascontiguousarray(indptr, dtype=np.intc),
    )


def _gstrs_slots(n: int, lower: sp.csr_matrix | None, upper: sp.csr_matrix | None):
    """gstrs ``(lslot, uslot)`` arrays for ``(I + L)(I + U)``, or ``None``.

    gstrs expects the L factor as a CSC unit-lower matrix *with* its
    diagonal present; the U factor's diagonal is implicit.  Passing the
    conventions the other way round silently produces garbage.  A missing
    triangle is the identity L slot / the all-zero U slot.  ``None`` when
    a slot overflows its C-int index arrays.
    """
    lslot, uslot = _slot(n, lower, True), _slot(n, upper, False)
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
    numpy tier, in a process whose gstrs passed :func:`gstrs_trusted`, the
    first solve builds the gstrs slots (threads meeting there may both
    build them, equal) and every solve is one gstrs call.
    """

    def __init__(
        self, n: int, lower: sp.csr_matrix | None, upper: sp.csr_matrix | None
    ) -> None:
        self.n = n
        self.lower = lower
        self.upper = upper
        self._slots: tuple | None = None  # () = slots past C ints: run the spec

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
        if resolve_tier() == "reference" or not gstrs_trusted():
            return self.spec(b)
        if self._slots is None:
            self._slots = _gstrs_slots(self.n, self.lower, self.upper) or ()
        if not self._slots:
            return self.spec(b)
        return gstrs_sweeps(self.n, self._slots[0], self._slots[1], b)


_trusted: bool | None = None  # the process's verdict; a forked child inherits it


def gstrs_trusted() -> bool:
    """Whether this process's gstrs gives the spec's bytes, decided at the
    first call by :func:`_battery_mismatch` (a mismatch emits an
    ``apply.gstrs_mismatch`` event).  Unlocked, so that a fork can never
    inherit it held: threads meeting at the very first call each run the
    battery and reach the same verdict."""
    global _trusted
    if _trusted is None:
        if not superlu_available():
            return False
        shape = _battery_mismatch()
        if shape is not None:
            obs.event("apply.gstrs_mismatch", shape=shape[0], sweeps=shape[1])
        _trusted = shape is None
    return _trusted


def _battery() -> list[tuple[str, sp.csr_matrix, sp.csr_matrix, np.ndarray]]:
    """The check's fixed systems ``(shape, L, U, b)``: n = 1, no entries,
    stored zeros that decide a sign, a dense and a random sparse pair, and
    all of them stacked with an empty block.  Values and right-hand sides
    are salted with signed zeros and subnormals."""
    rng = np.random.default_rng(2003)
    salt = [1.0, 1.0, 1.0, 0.0, -0.0, 1e-310]
    systems = [(
        "signed zeros",
        sp.csr_matrix(([0.0, -0.0], [0, 2], [0, 0, 1, 1, 2, 2, 2]), shape=(6, 6)),
        sp.csr_matrix(([0.0, -0.0], [3, 5], [0, 0, 0, 1, 1, 2, 2]), shape=(6, 6)),
        np.array([-1.0, -0.0, -0.0, 2.0, -0.0, 3.0]),
    )]
    for shape, n, density in (
        ("n=1", 1, 0), ("no entries", 5, 0), ("dense", 12, 1), ("sparse", 40, 0.1),
    ):
        values = rng.standard_normal((n, n)) * rng.choice(salt, (n, n))
        keep = rng.random((n, n)) < density
        lower, upper = (  # every kept entry stored, zeros included
            sp.csr_matrix((values[m], np.nonzero(m)[1], counts_to_indptr(m.sum(1))), shape=(n, n))
            for m in (np.tril(keep, -1), np.triu(keep, 1))
        )
        systems.append((shape, lower, upper, rng.standard_normal(n) * rng.choice(salt, n)))
    blocks = systems[:2] + [("", sp.csr_matrix((0, 0)), sp.csr_matrix((0, 0)), np.empty(0))]
    blocks += systems[2:]
    systems.append((
        "stacked", stack_csr([s[1] for s in blocks]), stack_csr([s[2] for s in blocks]),
        np.concatenate([s[3] for s in blocks]),
    ))
    return systems


def _battery_mismatch() -> tuple[str, str] | None:
    """``(shape, sweeps)`` of the first :func:`_battery` system on which
    gstrs and the spec differ in a byte, else ``None``; each system is swept
    fused, lower only and upper only."""
    for shape, lower, upper, b in _battery():
        n = len(b)
        low, upp = _slot(n, lower, True), _slot(n, upper, False)
        for sweeps, slots, tri in (
            ("lower+upper", (low, upp), (lower, upper)),
            ("lower", (low, _slot(n, None, False)), (lower, None)),
            ("upper", (_slot(n, None, True), upp), (None, upper)),
        ):
            if gstrs_sweeps(n, *slots, b).tobytes() != UnitSweeps(n, *tri).spec(b).tobytes():
                return shape, sweeps
    return None


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
