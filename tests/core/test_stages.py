"""The staged solve is the only solve pipeline under ``src/repro``."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
STAGE_CALLS = {"PartitionMap", "distribute_matrix", "make_preconditioner"}


def _called_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


def test_only_the_stage_module_runs_the_stages():
    callers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if _called_names(ast.parse(path.read_text())) & STAGE_CALLS
    }
    assert callers == {"core/stages.py"}


def test_benchmark_scripts_distribute_through_the_stage():
    # benchmarks/e2e is the benchmark's own copy of the pipeline
    scripts = sorted(BENCHMARKS.glob("*.py"))
    assert scripts
    assert [p.name for p in scripts if "distribute_matrix(" in p.read_text()] == []
