"""No dead names: every import is read, and every library definition is used.

No linter is installed, so this stays stdlib-only and parses with ``ast``:

* each module under ``src/eprbsim`` except the package ``__init__`` (which
  imports to re-export), ``tests`` and ``scripts`` reads every name it
  imports;
* every module-level ``def`` or ``class`` in ``src/eprbsim`` is loaded by
  name somewhere in ``src`` or ``scripts``, or is exported in
  ``eprbsim.__all__``.
"""

import ast
from pathlib import Path

import pytest

import eprbsim

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for pattern in ("src/eprbsim/*.py", "tests/*.py", "scripts/*.py")
                 for p in ROOT.glob(pattern) if p.name != "__init__.py")
LIBRARY = sorted((ROOT / "src" / "eprbsim").glob("*.py"))


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


def dead_definitions(modules: dict[str, str], readers: list[str], exported) -> list[str]:
    """``module.name`` of each top-level def or class no reader loads or ``exported`` names."""
    loaded = {node.id for source in readers for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{module}.{node.name}" for module, source in modules.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name not in loaded and node.name not in exported]


def test_checker_finds_a_dead_definition():
    lib = "def used():\n    pass\n\ndef dead():\n    pass\n\nclass Public:\n    pass\n"
    assert dead_definitions({"lib": lib}, [lib, "used()\n"], {"Public"}) == ["lib.dead"]


def test_no_dead_definitions():
    readers = [p.read_text() for pattern in ("src/eprbsim/*.py", "scripts/*.py")
               for p in ROOT.glob(pattern)]
    modules = {p.stem: p.read_text() for p in LIBRARY}
    assert dead_definitions(modules, readers, set(eprbsim.__all__)) == []
