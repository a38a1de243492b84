"""Every name a module imports is read somewhere in that module.

No linter is installed, so this stays stdlib-only: each module under
``src/eprbsim`` except the package ``__init__`` (which imports to re-export),
``tests`` and ``scripts`` is parsed with ``ast``, and any imported name never
loaded is reported.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for pattern in ("src/eprbsim/*.py", "tests/*.py", "scripts/*.py")
                 for p in ROOT.glob(pattern) if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in loaded]


def test_checker_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path as p\nprint(p)\n") == [
        "math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
