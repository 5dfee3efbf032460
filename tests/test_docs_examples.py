"""Every fenced Python block in the docs must actually run.

Blocks are extracted per document and executed sequentially in one shared
namespace (docs read top-to-bottom: later blocks may use earlier names),
with the working directory pointed at a temp dir so example output files
land nowhere permanent.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

DOCS_DIR = Path(__file__).parent.parent / "docs"

_FENCE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def python_blocks(doc: str) -> list[tuple[int, str]]:
    """(starting line number, source) for each ```python fence in the doc."""
    text = (DOCS_DIR / doc).read_text()
    return [
        (text[: m.start()].count("\n") + 2, m.group(1))
        for m in _FENCE.finditer(text)
    ]


#: the docs that have runnable blocks (prose-only docs have nothing to run)
DOCS = sorted(
    p.name for p in DOCS_DIR.glob("*.md") if python_blocks(p.name)
)


def test_docs_present():
    assert DOCS, "no doc has a python block: the fence regex or docs/ moved"
    assert "usage.md" in DOCS and "observability.md" in DOCS


@pytest.mark.parametrize("doc", DOCS)
def test_python_blocks_execute(doc, tmp_path, monkeypatch):
    blocks = python_blocks(doc)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {"__name__": f"docs_{doc.removesuffix('.md')}"}
    for lineno, source in blocks:
        code = compile(source, f"{doc}:{lineno}", "exec")
        try:
            exec(code, namespace)
        except Exception as exc:  # pragma: no cover - diagnostic path
            pytest.fail(
                f"docs/{doc} block at line {lineno} failed: {exc!r}\n{source}"
            )
