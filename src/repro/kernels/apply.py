"""Tier dispatch for the apply-phase kernels (triangular sweeps, matvec).

The apply hot path reuses the factor-kernel tier policy
(:func:`repro.kernels.get_tier` / ``REPRO_KERNEL_TIER``) with the same
names and the same bit-compatibility contract:

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
tier uses ``A @ x`` directly.

All sweeps here solve *unit* triangles.  Non-unit diagonals are handled by
the factor objects (column-scale the strict triangle by ``invd`` at
preparation time, multiply the sweep output by ``invd`` afterwards), so
both tiers share one elementwise scaling and the sweeps never divide.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import obs

from . import applyspec

# SuperLU's index arrays are C ints; fall back rather than overflow
_INTC_MAX = np.iinfo(np.intc).max

_superlu_state: dict[str, object] = {"loaded": False, "mod": None}


def _superlu():
    """scipy's private compiled SuperLU module, or ``None``."""
    if not _superlu_state["loaded"]:
        _superlu_state["loaded"] = True
        try:
            from scipy.sparse.linalg._dsolve import _superlu as mod

            _superlu_state["mod"] = mod if hasattr(mod, "gstrs") else None
        except Exception:
            _superlu_state["mod"] = None
    return _superlu_state["mod"]


def superlu_available() -> bool:
    """True when the compiled ``gstrs`` entry point is importable."""
    return _superlu() is not None


def resolve_tier() -> str:
    """The apply-phase tier: the forced/env kernel tier, else ``"numpy"``.

    One ``REPRO_KERNEL_TIER`` (or :func:`repro.kernels.forced_tier`)
    setting pins the entire solve.  The compiled kernels carry no setup
    cost, so auto policy never picks the interpreted loops.
    """
    from repro import kernels

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
    probe chose.
    """

    def __init__(
        self, n: int, lower: sp.csr_matrix | None, upper: sp.csr_matrix | None
    ) -> None:
        self.n = n
        self.lower = lower
        self.upper = upper
        self._slots: tuple | None = None
        # None = gstrs not tried yet; False = this factor runs the spec loops
        self.superlu_ok: bool | None = None

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
        if self.superlu_ok is False or resolve_tier() == "reference":
            return self.spec(b)
        if self._slots is None:
            return self._probe(b)
        return gstrs_sweeps(self.n, self._slots[0], self._slots[1], b)

    def _probe(self, b: np.ndarray) -> np.ndarray:
        """First numpy-tier solve: gstrs must exist, fit C ints and
        reproduce the spec's bits, or this factor keeps to the spec."""
        x = self.spec(b)
        slots = _gstrs_slots(self.n, self.lower, self.upper)
        if slots is None:
            self.superlu_ok = False
            return x
        self._slots = slots
        y = gstrs_sweeps(self.n, slots[0], slots[1], b)
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


# -- matvec -------------------------------------------------------------------


def csr_matvec(a: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """Tier-dispatched ``y = A x`` for a CSR operator.

    scipy's compiled CSR product performs each row's accumulation
    left-to-right into a scalar, exactly the spec's order, so the numpy
    tier is the library call itself; the reference tier runs the spec loop.
    """
    if resolve_tier() == "numpy":
        return a @ x
    xf = np.ascontiguousarray(x, dtype=np.float64)
    y = np.empty(a.shape[0], dtype=np.float64)
    return applyspec.csr_matvec(a.indptr, a.indices, a.data, xf, y)
