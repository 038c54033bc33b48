"""Source checks over the package's own modules."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import probalc

PACKAGE = Path(probalc.__file__).resolve().parent
# ``__init__.py`` imports names to re-export them.
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

# Functions that may call themselves, each with the reason that is safe for now.
_FORMULAS = "the pipeline's formulas are at most two levels deep"
ALLOWED_RECURSION = {
    "pinpoint._eval": _FORMULAS,
    "pinpoint._render": _FORMULAS,
    "generators.random_concept": "its depth is an argument",
}


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never uses, ``__future__`` features aside."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport sys\n"
        "from typing import Iterable, Sequence as Seq\n"
        "def f(x: Iterable) -> None:\n    print(sys.argv)\n"
    )
    assert unused_imports(source) == ["Seq", "os"]


def test_modules_were_found():
    assert {"cli.py", "tableau.py", "justify.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def self_calls(source: str, module: str) -> list[str]:
    """The module's functions that call themselves, as ``module.name`` or ``module.Class.name``.

    A module-level function counts when it calls its own name, a method
    when it loads ``self.<its own name>``.  A method calling the module
    function of the same name is not recursion.
    """
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            if any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == node.name
                for n in ast.walk(node)
            ):
                found.append(f"{module}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and any(
                    isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Load)
                    and n.attr == method.name
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "self"
                    for n in ast.walk(method)
                ):
                    found.append(f"{module}.{node.name}.{method.name}")
    return found


def test_the_check_finds_self_calls():
    source = (
        "def f(x):\n    return f(x - 1) if x else 0\n"
        "def g(x):\n    return f(x)\n"
        "def vocabulary(x):\n    return x\n"
        "class K:\n"
        "    def m(self, x):\n        return self._apply(self.m, x)\n"
        "    def vocabulary(self):\n        return vocabulary(self)\n"
    )
    assert self_calls(source, "mod") == ["mod.f", "mod.K.m"]


@pytest.mark.parametrize("module", MODULES)
def test_no_recursion(module):
    """Inputs of any depth must not reach Python's recursion limit."""
    name = module.removesuffix(".py")
    found = self_calls((PACKAGE / module).read_text(), name)
    assert [f for f in found if f not in ALLOWED_RECURSION] == []


def test_allowed_recursion_still_recurses():
    """An entry whose function no longer calls itself is dropped from the list."""
    found = set()
    for module in MODULES:
        found.update(self_calls((PACKAGE / module).read_text(), module.removesuffix(".py")))
    assert set(ALLOWED_RECURSION) <= found
