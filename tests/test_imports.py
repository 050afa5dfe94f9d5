"""Every name a package module, script or test module imports is used in that
module, every parameter of a package function is read in its body, every
module-level private name is used somewhere in the package,
every module-level public name is used by the package, a script or the
benchmark, and importing the CLI loads no process-pool machinery."""

import ast
import os
import subprocess
import sys
from collections.abc import Iterable
from pathlib import Path

import pytest

import emsched

REPO = Path(__file__).resolve().parent.parent
MODULES = sorted(Path(emsched.__file__).resolve().parent.glob("*.py"))
SCRIPTS_AND_TESTS = sorted(REPO.glob("scripts/*.py")) + sorted(REPO.glob("tests/*.py"))
PROGRAMS = sorted(REPO.glob("scripts/*.py")) + sorted(REPO.glob("bench/*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never references.

    A name counts as referenced when it appears as an identifier anywhere in
    the module.
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
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES + SCRIPTS_AND_TESTS, ids=lambda p: p.name)
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


def unused_parameters(source: str) -> list[str]:
    """Parameters of a function or lambda that its body, nested functions
    included, never reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        found += [f"{name}: {a.arg} (line {node.lineno})" for a in params if a.arg not in read]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_the_scan_sees_an_unused_parameter():
    source = (
        "def f(a, b, *args, c=1, **kwargs):\n"
        "    def g(d):\n"
        "        return a + c\n"
        "    return g\n"
        "\n"
        "key = lambda row, i: row[0]\n"
    )
    assert unused_parameters(source) == [
        "f: b (line 1)", "f: args (line 1)", "f: kwargs (line 1)", "g: d (line 2)", "lambda: i (line 6)",
    ]


def module_level_names(sources: dict[str, str]) -> dict[str, str]:
    """Each module-level function, class and constant of `sources` (module
    name -> source), mapped to where it is defined ("module:line")."""
    defined: dict[str, str] = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defined[name] = f"{module}:{node.lineno}"
    return defined


def referenced_names(sources: Iterable[str]) -> set[str]:
    """Every name one of `sources` loads as an identifier, reads as an
    attribute (`oracle._FEAS_TOL`) or imports by name."""
    used: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def unused_privates(sources: dict[str, str]) -> list[str]:
    """Module-level `_private` functions, classes and constants that no module
    of `sources` references. Dunder names are exempt."""
    used = referenced_names(sources.values())
    return [
        f"{name} ({where})"
        for name, where in sorted(module_level_names(sources).items())
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]


def test_no_unused_private_names():
    assert unused_privates({path.name: path.read_text() for path in MODULES}) == []


def test_the_scan_sees_an_unused_private_name():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_SPARE = 4\n"
            "def _used(): return _LIMIT\n"
            "def _lattice(): pass\n"
            "class _Table: pass\n"
            "def _called_from_b(): pass\n"
            "def __getattr__(name): pass\n"
        ),
        "b.py": "from . import a\nfrom .a import _used\na._called_from_b()\n",
    }
    assert unused_privates(sources) == ["_SPARE (a.py:2)", "_Table (a.py:5)", "_lattice (a.py:4)"]


def publics_only_tests_use(package: dict[str, str], programs: Iterable[str]) -> list[str]:
    """Module-level public functions, classes and constants of `package` that
    neither the package nor the `programs` sources (the scripts and the
    benchmark) reference, so that at most the tests use them."""
    used = referenced_names([*package.values(), *programs])
    return [
        f"{name} ({where})"
        for name, where in sorted(module_level_names(package).items())
        if not name.startswith("_") and name not in used
    ]


def test_no_public_name_is_used_only_by_tests():
    package = {path.name: path.read_text() for path in MODULES}
    assert publics_only_tests_use(package, [path.read_text() for path in PROGRAMS]) == []


def test_the_scan_sees_a_public_name_only_tests_use():
    package = {
        "a.py": (
            "LIMIT = 3\n"
            "SPARE = 4\n"
            "def solve(): return LIMIT\n"
            "def adapter(): pass\n"
            "class Table: pass\n"
            "def called_from_bench(): pass\n"
            "def _private(): pass\n"
        ),
        "b.py": "from .a import solve\n",
    }
    programs = ["import a\na.called_from_bench()\n"]
    assert publics_only_tests_use(package, programs) == ["SPARE (a.py:2)", "Table (a.py:5)", "adapter (a.py:4)"]


def test_the_cli_imports_no_process_pool():
    # a fresh interpreter, so that what other tests imported does not count
    code = (
        "import sys, emsched.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'multiprocessing'"
        " or m.startswith('concurrent.futures')))"
    )
    package_root = Path(emsched.__file__).resolve().parent.parent
    path = os.pathsep.join(p for p in (str(package_root), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
