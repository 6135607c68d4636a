"""Every name a ``src/qgen`` module imports is used in that module.

The project ships no linter, so this is a static check with ``ast``: the
names each import statement binds must each appear as a name elsewhere in
the module, in a string annotation or in ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qgen"


def unused_imports(source: str) -> list[str]:
    """The names that ``source``'s imports bind and nothing else in it reads, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        for quoted in ast.walk(annotation) if annotation is not None else ():
            # A quoted annotation such as -> "Chunk" names what it quotes.
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                used |= {n.id for n in ast.walk(ast.parse(quoted.value, mode="eval")) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_names_what_nothing_reads():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .errors import InputError, PipelineStateError\n"
        "from .chunking import Chunk\n"
        "from .vectorindex import VectorIndex, top_k\n"
        "__all__ = ['top_k']\n"
        "def f(x: 'list[VectorIndex]') -> 'Chunk':\n"
        "    raise InputError(os.path.join(x, 'np'))\n"
    )
    assert unused_imports(source) == ["np", "PipelineStateError"]
