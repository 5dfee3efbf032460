"""Determinism checker — the bit-reproducibility gate.

Dong & Cooperman (PAPERS.md) make bit-compatibility the correctness
contract for parallel ILU: without it, preconditioner comparisons measure
scheduling noise, not algorithms.  This repo has two places where that
contract is at risk and this module checks both, bitwise:

* **kernel tiers** — the reference / numpy dispatch
  (:mod:`repro.kernels`) must produce identical factors, iterates and
  residual histories for the same case;
* **execution backends** — set-up and local solves inside real rank
  processes (:mod:`repro.precond.local`) must not change a single bit
  against the simulated ranks on the driver.

``python -m repro check-determinism`` runs each case twice per tier and once
per backend, compares SHA-256 digests of the solution iterate, the residual
history, the per-subdomain factors and the apply kernels (triangular sweeps
+ matvec, :mod:`repro.kernels.apply`), and writes a
``repro.determinism.v2`` report.
The factor cache is disabled for the duration — a cache hit returns the
same object and would vacuously pass.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from repro import kernels
from repro.cases.base import TestCase
from repro.factor import cache as factor_cache
from repro.factor.ilu0 import ilu0
from repro.factor.ilut import ilut

DETERMINISM_SCHEMA = "repro.determinism.v2"

#: selectable check kinds (``--check``); "backend" compares inprocess vs
#: multiprocess execution of the same solve, bitwise
CHECK_KINDS = ("repeat", "cross-tier", "factors", "apply", "backend")


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@contextmanager
def _cache_disabled() -> Iterator[None]:
    prev = factor_cache.get_cache().enabled
    factor_cache.configure(enabled=False)
    try:
        yield
    finally:
        factor_cache.configure(enabled=prev)


@dataclass
class Check:
    """One comparison: a repeat, cross-tier, backend, factor or apply check."""

    kind: str
    case: str
    identical: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "case": self.case,
            "identical": self.identical,
            **self.detail,
        }


@dataclass
class DeterminismReport:
    nparts: int
    tiers: tuple[str, ...]
    checks: list[Check] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return all(c.identical for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.identical]

    def to_dict(self) -> dict:
        return {
            "schema": DETERMINISM_SCHEMA,
            "nparts": self.nparts,
            "tiers": list(self.tiers),
            "identical": self.identical,
            "checks": [c.to_dict() for c in self.checks],
        }

    def write_json(self, path: str | Path) -> Path:
        out = Path(path)
        out.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return out

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            verdict = "identical" if c.identical else "MISMATCH"
            extra = ", ".join(
                f"{k}={v}" for k, v in c.detail.items()
                if k in ("tier", "tiers")
            )
            lines.append(f"  [{c.kind}] {c.case}" +
                         (f" ({extra})" if extra else "") + f": {verdict}")
        return "\n".join(lines)


def _solve_digests(
    case: TestCase,
    tier: str | None,
    nparts: int,
    precond: str,
    backend: str | None = None,
    **solve_kw: object,
) -> dict[str, object]:
    """Solve once under forced tier/backend; digest everything that must
    reproduce bitwise."""
    from repro.core.driver import solve_case  # deferred: heavy import

    # partition_graph and distribute_matrix themselves, every run: a remembered
    # membership or distribution reproduces vacuously
    membership = case.partition(nparts, seed=solve_kw.get("seed", 0))
    case.forget_distributions()
    with kernels.forced_tier(tier):
        out = solve_case(
            case, precond=precond, nparts=nparts, backend=backend,
            membership=membership, **solve_kw
        )
    return {
        "x": _digest(out.x_global),
        "residuals": _digest(np.asarray(out.residuals, dtype=np.float64)),
        "iterations": out.iterations,
        "status": out.status,
    }


def _subdomain_blocks(case: TestCase, nparts: int, seed: int) -> list[sp.csr_matrix]:
    from repro.core import stages  # deferred: heavy import

    dmat = stages.distribute(case, nparts, seed=seed)
    # square owned-diagonal block (local rows are owned x [owned; ghost])
    return [
        sp.csr_matrix(dmat.local[r][:, : dmat.local[r].shape[0]])
        for r in range(nparts)
    ]


def _apply_digest(blocks: Sequence[sp.csr_matrix], tier: str) -> str:
    """One digest over the apply kernels: both sweeps, the fused ILU solve
    and the CSR matvec of every subdomain block, under one tier."""
    from repro.kernels import apply as apply_kernels

    h = hashlib.sha256()
    with kernels.forced_tier(tier):
        for a in blocks:
            n = a.shape[0]
            rhs = np.cos(np.arange(n, dtype=np.float64))
            fac = ilut(a, drop_tol=1e-3, fill=10)
            h.update(_digest(
                fac.solve(rhs),
                fac.L.solve(rhs),
                fac.U.solve(rhs),
                apply_kernels.csr_matvec(a, rhs),
            ).encode())
    return h.hexdigest()


def _factor_digest(blocks: Sequence[sp.csr_matrix], tier: str) -> str:
    """One digest over every subdomain's ILU(0) and ILUT factors."""
    h = hashlib.sha256()
    with kernels.forced_tier(tier):
        for a in blocks:
            for fac in (ilu0(a), ilut(a, drop_tol=1e-3, fill=10)):
                for mat in (fac.l_strict, fac.u_upper):
                    h.update(_digest(mat.indptr, mat.indices, mat.data).encode())
    return h.hexdigest()


def check_determinism(
    cases: Sequence[TestCase],
    nparts: int = 4,
    tiers: Sequence[str] | None = None,
    precond: str = "schur1",
    seed: int = 0,
    rtol: float = 1e-6,
    maxiter: int = 200,
    checks: Sequence[str] | None = None,
) -> DeterminismReport:
    """Run the determinism matrix over ``cases``.

    Per case: (1) solve twice per tier and compare bitwise; (2) compare
    across tiers; (3) factor every subdomain block twice per tier and
    across tiers; (4) run the apply kernels (triangular sweeps, fused ILU
    solve, matvec) twice per tier and across tiers;
    (5) solve under every execution backend (inprocess vs multiprocess)
    and compare — real pipe transport must not change a bit.

    ``checks`` selects a subset of :data:`CHECK_KINDS` (default: all).
    """
    tiers = tuple(tiers) if tiers is not None else kernels.available_tiers()
    selected = tuple(checks) if checks is not None else CHECK_KINDS
    for kind in selected:
        if kind not in CHECK_KINDS:
            raise ValueError(
                f"unknown determinism check {kind!r}; pick from {CHECK_KINDS}"
            )
    solve_kw = dict(seed=seed, rtol=rtol, maxiter=maxiter)
    report = DeterminismReport(nparts=nparts, tiers=tiers)

    with _cache_disabled():
        for case in cases:
            if "repeat" in selected or "cross-tier" in selected:
                per_tier: dict[str, dict[str, object]] = {}
                for tier in tiers:
                    runs = [
                        _solve_digests(case, tier, nparts, precond, **solve_kw)
                        for _ in range(2)
                    ]
                    per_tier[tier] = runs[0]
                    if "repeat" in selected:
                        report.checks.append(Check(
                            kind="repeat", case=case.key,
                            identical=runs[0] == runs[1],
                            detail={"tier": tier, "runs": runs},
                        ))

                if "cross-tier" in selected:
                    first = per_tier[tiers[0]]
                    report.checks.append(Check(
                        kind="cross-tier", case=case.key,
                        identical=all(per_tier[t] == first for t in tiers),
                        detail={"tiers": list(tiers), "digests": per_tier},
                    ))

            if "backend" in selected:
                from repro.comm.backends import BACKEND_NAMES

                # rank-built factors are pinned byte-equal to driver-built
                # ones by tests/precond/test_local_solver.py::TestContract
                backend_runs = {
                    bk: _solve_digests(
                        case, None, nparts, precond, backend=bk, **solve_kw,
                    )
                    for bk in BACKEND_NAMES
                }
                b0 = backend_runs[BACKEND_NAMES[0]]
                report.checks.append(Check(
                    kind="backend", case=case.key,
                    identical=all(
                        backend_runs[bk] == b0 for bk in BACKEND_NAMES
                    ),
                    detail={"backends": list(BACKEND_NAMES),
                            "digests": backend_runs},
                ))

            if "factors" not in selected and "apply" not in selected:
                continue
            blocks = _subdomain_blocks(case, nparts, seed)
            if "factors" in selected:
                fdig = {
                    tier: [_factor_digest(blocks, tier) for _ in range(2)]
                    for tier in tiers
                }
                repeat_ok = all(d[0] == d[1] for d in fdig.values())
                cross_ok = len({d[0] for d in fdig.values()}) == 1
                report.checks.append(Check(
                    kind="factors", case=case.key,
                    identical=repeat_ok and cross_ok,
                    detail={"tiers": list(tiers), "digests":
                            {t: d[0] for t, d in fdig.items()},
                            "repeat_identical": repeat_ok,
                            "cross_tier_identical": cross_ok},
                ))

            if "apply" in selected:
                adig = {
                    tier: [_apply_digest(blocks, tier) for _ in range(2)]
                    for tier in tiers
                }
                a_repeat_ok = all(d[0] == d[1] for d in adig.values())
                a_cross_ok = len({d[0] for d in adig.values()}) == 1
                report.checks.append(Check(
                    kind="apply", case=case.key,
                    identical=a_repeat_ok and a_cross_ok,
                    detail={"tiers": list(tiers),
                            "digests": {t: d[0] for t, d in adig.items()},
                            "repeat_identical": a_repeat_ok,
                            "cross_tier_identical": a_cross_ok},
                ))
    return report
