"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import emsched

MODULES = sorted(Path(emsched.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never references.

    A name counts as referenced when it appears as an identifier anywhere in
    the module, or as a string in `__all__` (a re-export).
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = (
        "import math\n"
        "from typing import Iterable, Sequence\n"
        "\n"
        "def f(x: Sequence) -> None:\n"
        "    pass\n"
    )
    assert unused_imports(source) == ["Iterable (line 2)", "math (line 1)"]
