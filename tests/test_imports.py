"""Every name a gaplab module imports is used by that module, and every
function and class a gaplab module defines is read by gaplab itself.

No linter ships with the project, so these are its unused-import and
unused-definition checks.  __init__.py is skipped: its imports are the
package's public names, and exporting a name is no use of it.  Code only
tests call belongs in tests/reference.py.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gaplab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements of `source` that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("from dataclasses import dataclass, field\nimport numpy as np\n"
              "@dataclass\nclass A:\n    x: int\n")
    assert unused_imports(source) == ["line 1: field", "line 2: np"]


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"distributions.py", "mc_harness.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """`module.name` of each top-level function and class in `sources`
    (module name -> source) that no source reads as a name or attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined if name.rpartition(".")[2] not in read]


def test_the_check_finds_an_unread_definition():
    sources = {"a": "def f():\n    return g()\ndef g():\n    pass\nclass C:\n    pass\n",
               "b": "import a\ndef h():\n    return a.f\n"}
    assert unread_definitions(sources) == ["a.C", "b.h"]


def test_every_definition_is_read():
    assert unread_definitions({p.stem: p.read_text() for p in MODULES}) == []
