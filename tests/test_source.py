"""Source checks over the package's own modules."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import probalc

PACKAGE = Path(probalc.__file__).resolve().parent
# ``__init__.py`` imports names to re-export them.
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


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
