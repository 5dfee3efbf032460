"""The paper's suite of PDE test cases (Sec. 3).

Each builder returns a :class:`TestCase` bundling the assembled linear
system, the partitioning graphs, the paper-specified initial guess and, where
the paper gives one, the exact solution.
"""

from repro.cases.base import TestCase
from repro.cases.poisson2d import poisson2d_case
from repro.cases.poisson3d import poisson3d_case
from repro.cases.poisson_unstructured import poisson_unstructured_case
from repro.cases.heat3d import heat3d_case
from repro.cases.convection2d import convection2d_case
from repro.cases.elasticity_ring import elasticity_ring_case
from repro.cases.anisotropic2d import anisotropic2d_case
from repro.cases.lshape_poisson import lshape_poisson_case

CASE_BUILDERS = {
    "tc1": poisson2d_case,
    "tc2": poisson3d_case,
    "tc3": poisson_unstructured_case,
    "tc4": heat3d_case,
    "tc5": convection2d_case,
    "tc6": elasticity_ring_case,
    "aniso": anisotropic2d_case,
    "lshape": lshape_poisson_case,
}

#: descriptive aliases for the paper's tcN keys
CASE_ALIASES = {
    "poisson2d": "tc1",
    "poisson3d": "tc2",
    "poisson_unstructured": "tc3",
    "heat3d": "tc4",
    "convection2d": "tc5",
    "elasticity_ring": "tc6",
}


def resolve_case_key(key: str) -> str:
    """The ``CASE_BUILDERS`` key for a case key or alias; ``ValueError`` if unknown."""
    key = CASE_ALIASES.get(key, key)
    if key not in CASE_BUILDERS:
        raise ValueError(
            f"unknown case {key!r}; pick from {sorted(CASE_BUILDERS)} "
            f"or aliases {sorted(CASE_ALIASES)}"
        )
    return key


def build_case(key: str, size: int | None = None) -> TestCase:
    """Build a case by key or alias at resolution ``size`` (None: default)."""
    key = resolve_case_key(key)
    builder = CASE_BUILDERS[key]
    if size is None:
        return builder()
    if key == "tc3":
        return builder(target_h=1.0 / size)
    if key == "tc6":
        return builder(n_theta=size, n_r=max(3, size // 3))
    return builder(n=size)


__all__ = [
    "TestCase",
    "poisson2d_case",
    "poisson3d_case",
    "poisson_unstructured_case",
    "heat3d_case",
    "convection2d_case",
    "elasticity_ring_case",
    "anisotropic2d_case",
    "lshape_poisson_case",
    "CASE_BUILDERS",
    "CASE_ALIASES",
    "build_case",
    "resolve_case_key",
]
