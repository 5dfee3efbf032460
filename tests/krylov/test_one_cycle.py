"""The restarted FGMRES cycle is written once.

One function of ``krylov/fgmres.py`` takes Arnoldi steps; every other FGMRES
is a call into it.  A per-rank ``fgmres`` loop in a preconditioner — what
the lockstep replaced for Schur 1 and Block K — fails here before it can
drift from the cycle.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _calls(node, name):
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and (getattr(call.func, "id", None) == name or getattr(call.func, "attr", None) == name)
    ]


def test_one_function_takes_arnoldi_steps():
    tree = ast.parse((SRC / "krylov" / "fgmres.py").read_text())
    stepping = [
        fn.name for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and _calls(fn, "_arnoldi_column")
    ]
    assert stepping == ["_cycle"]


def test_no_preconditioner_loops_over_fgmres():
    looped = [
        f"{path.name}:{call.lineno}"
        for path in sorted((SRC / "precond").glob("*.py"))
        for loop in ast.walk(ast.parse(path.read_text()))
        if isinstance(loop, (ast.For, ast.While, ast.ListComp, ast.GeneratorExp))
        for call in _calls(loop, "fgmres")
    ]
    assert looped == []
