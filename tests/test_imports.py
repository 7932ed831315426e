"""Every name a gaplab module imports is used by that module, every
function, class and method a gaplab module defines is read by gaplab itself,
mc_harness.TrialPool is the only code that starts worker processes, cli is
the only module that writes to the user, no module names `Point` (a point
set is packed rows), and the third-party modules gaplab imports are exactly
the dependencies pyproject.toml lists.

No linter ships with the project, so these are its unused-import and
unused-definition checks.  __init__.py is skipped: its imports are the
package's public names, and exporting a name is no use of it.  Code only
tests call belongs in tests/reference.py.
"""

import ast
import importlib
import re
import sys
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def attribute_root(node: ast.Attribute) -> str | None:
    """The name an attribute chain starts from: `np` for `np.random.Generator`."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def unread_definitions(sources: dict[str, str], package: str) -> list[str]:
    """`module.name` of each top-level function and class, and
    `module.Class.name` of each of their methods, in `sources` (module name
    -> source of `package.module`) that no source reads as a name or
    attribute.  An attribute of a module bound by `import` from outside the
    package (`np.empty`, `math.log`) is no read of a definition, and nor is a
    read inside a function's or method's own body.  Dunders and overrides of
    a method a base class defines are left out: their caller is Python or the
    base class."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined, reads = {}, []  # definition -> ids of the nodes of its own body
    for module, tree in trees.items():
        outside = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names
                   if alias.name.split(".")[0] != package}
        for node in tree.body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                defined[f"{module}.{node.name}"] = (
                    {id(n) for n in ast.walk(node)} if isinstance(node, FUNCTIONS) else set())
            if isinstance(node, ast.ClassDef):
                bases = vars(importlib.import_module(f"{package}.{module}"))[node.name].__mro__[1:]
                defined.update({f"{module}.{node.name}.{item.name}": {id(n) for n in ast.walk(item)}
                                for item in node.body
                                if isinstance(item, FUNCTIONS) and not item.name.startswith("__")
                                and not any(hasattr(base, item.name) for base in bases)})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.append((node.id, id(node)))
            elif isinstance(node, ast.Attribute) and attribute_root(node) not in outside:
                reads.append((node.attr, id(node)))
    return [name for name, body in defined.items()
            if not any(read == name.rpartition(".")[2] and node not in body
                       for read, node in reads)]


def test_the_check_finds_an_unread_definition(tmp_path, monkeypatch):
    sources = {"a": ("def f():\n    return g()\ndef g():\n    pass\nclass C:\n    pass\n"
                     "def r():\n    return r()\n"),
               "b": ("import numpy as np\nfrom . import a\ndef h():\n    return a.f\n"
                     "class D(dict):\n    def __init__(self):\n        self.keep()\n"
                     "    def get(self):\n        pass\n    def keep(self):\n"
                     "        return np.empty(0), np.random.empty\n    def put(self):\n"
                     "        pass\n    def empty(self):\n        pass\n"
                     "    def loop(self):\n        return self.loop()\n")}
    (tmp_path / "unread_pkg").mkdir()
    (tmp_path / "unread_pkg" / "__init__.py").write_text("")
    for module, source in sources.items():
        (tmp_path / "unread_pkg" / f"{module}.py").write_text(source)
    monkeypatch.syspath_prepend(str(tmp_path))
    assert unread_definitions(sources, "unread_pkg") == [
        "a.C", "a.r", "b.h", "b.D", "b.D.put", "b.D.empty", "b.D.loop"]


def test_every_definition_is_read():
    assert unread_definitions({p.stem: p.read_text() for p in MODULES}, "gaplab") == []


def names_point(source: str) -> list[str]:
    """The lines of `source` that name `Point`, in code, strings or comments."""
    return [f"line {i}: {line.strip()}" for i, line in enumerate(source.splitlines(), 1)
            if re.search(r"\bPoint\b", line)]


def test_the_check_finds_a_point():
    source = ("from .concepts import Point, PointSet\n# a Point per row\n"
              "def f(s: PointSet, e: PointNotInDomainError):\n    return 'Point(x)'\n")
    assert names_point(source) == [
        "line 1: from .concepts import Point, PointSet", "line 2: # a Point per row",
        "line 4: return 'Point(x)'",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_names_point(path):
    assert names_point(path.read_text()) == []


def imported(node: ast.AST) -> list[str]:
    """The modules `node` imports if it is an import statement, else none."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return []


FANOUT_PACKAGES = {"concurrent", "multiprocessing", "contextvars"}


def fan_out_outside_trial_pool(module: str, source: str) -> list[str]:
    """Where `source`, the module `module`, may start or share worker
    processes other than through mc_harness.TrialPool: an import of
    concurrent.futures, multiprocessing or contextvars anywhere but in
    mc_harness, and a ProcessPoolExecutor named outside TrialPool."""
    tree = ast.parse(source)
    in_pool = {id(node) for cls in tree.body
               if isinstance(cls, ast.ClassDef) and cls.name == "TrialPool"
               for node in ast.walk(cls)}
    found = []
    for node in ast.walk(tree):
        found += [f"line {node.lineno}: imports {name}" for name in imported(node)
                  if module != "mc_harness" and name.split(".")[0] in FANOUT_PACKAGES]
        named = (node.id if isinstance(node, ast.Name)
                 else node.attr if isinstance(node, ast.Attribute) else None)
        if named == "ProcessPoolExecutor" and id(node) not in in_pool:
            found.append(f"line {node.lineno}: names ProcessPoolExecutor")
    return found


def test_the_check_finds_fan_out_outside_the_pool():
    source = ("import concurrent.futures as cf\nfrom contextvars import ContextVar\n"
              "class TrialPool:\n    def map(self):\n        return cf.ProcessPoolExecutor()\n"
              "def pool():\n    return cf.ProcessPoolExecutor()\n")
    assert fan_out_outside_trial_pool("cli", source) == [
        "line 1: imports concurrent.futures", "line 2: imports contextvars",
        "line 7: names ProcessPoolExecutor",
    ]
    assert fan_out_outside_trial_pool("mc_harness", source) == [
        "line 7: names ProcessPoolExecutor",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_trial_pool_fans_out(path):
    assert fan_out_outside_trial_pool(path.stem, path.read_text()) == []


REPORTING_PACKAGES = {"warnings", "logging", "click", "sys"}


def reports_outside_cli(module: str, source: str) -> list[str]:
    """Where `source`, the module `module`, may write to the user: an import
    of warnings, logging, click or sys, and a call of print, anywhere but in
    cli.  The engine returns what it found; cli alone reports it."""
    if module == "cli":
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        found += [f"line {node.lineno}: imports {name}" for name in imported(node)
                  if name.split(".")[0] in REPORTING_PACKAGES]
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            found.append(f"line {node.lineno}: calls print")
    return found


def test_the_check_finds_reporting_outside_the_cli():
    source = ("import sys, logging\nfrom warnings import warn\nimport click.testing\n"
              "def f(log):\n    print('x', file=sys.stderr)\n    return log.print()\n")
    assert reports_outside_cli("mc_harness", source) == [
        "line 1: imports sys", "line 1: imports logging", "line 2: imports warnings",
        "line 3: imports click.testing", "line 5: calls print",
    ]
    assert reports_outside_cli("cli", source) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_cli_reports(path):
    assert reports_outside_cli(path.stem, path.read_text()) == []


def third_party_imports(source: str) -> set[str]:
    """The top-level names of the modules `source` imports from outside the
    standard library and the package itself."""
    return {name.split(".")[0] for node in ast.walk(ast.parse(source))
            for name in imported(node)
            if name and not getattr(node, "level", 0)
            and name.split(".")[0] not in sys.stdlib_module_names}


def test_the_check_finds_a_third_party_import():
    source = ("import os, numpy.linalg as la\nfrom . import errors\nfrom .concepts import x\n"
              "from scipy.special import bdtr\nfrom collections import deque\n")
    assert third_party_imports(source) == {"numpy", "scipy"}


def test_the_package_imports_exactly_its_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((SRC.parents[1] / "pyproject.toml").read_text())["project"]
    dependencies = {re.match(r"[\w.-]+", spec)[0] for spec in project["dependencies"]}
    imports = set().union(*(third_party_imports(p.read_text()) for p in SRC.glob("*.py")))
    assert imports == dependencies
