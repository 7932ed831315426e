"""Every function, method and class of gaplab is entered by a corpus of
command runs, traced from before gaplab is imported.

tests/test_imports.py finds unread definitions from the source alone, so it
matches a method by its bare name: a method named like any attribute read
anywhere (`keys`, `n`) passes it.  This check runs the corpus in a
subprocess under a profile hook set with sys.setprofile and
threading.setprofile before the import, so that import-time calls and the
process pool's feeder threads count.  It fails on any definition the corpus
never enters that ALLOWED does not name, with the reader that keeps it.

A class counts as entered when one of its own methods is, the ones that
dataclass and NamedTuple generate included.  A class with no method of its
own, an exception, has nothing to enter but its body, which runs at import;
whether anything names it is test_imports.py's check.

`python tests/test_reachability.py PACKAGE OUT` runs the corpus of PACKAGE
(see CORPORA) and writes the names of the definitions it entered to OUT as
JSON, `module.qualname` as code objects spell them.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Definitions no command reaches, each with the reader that keeps it.
ALLOWED = {
    "distributions.FiniteSupportDistribution.n":
        "tests/reference.py and tests/test_concepts.py read a finite law's dimension",
    "distributions.PneMember.marginals":
        "tests/reference.py's point_prob and tests/test_distributions.py read them",
    "concepts.PointSet.__eq__":
        "round-trip tests in test_concepts.py and test_mc_harness.py compare point sets",
}

# Runs beyond the golden specs and the benchmark workloads, for the paths
# neither takes.  A dict is a document for --config; the product law runs on
# two workers, so that it is pickled.
PRODUCT_LAW = {"kind": "product", "marginals": [0.5, 0.25, 0.25, 0.1]}
EXTRA_RUNS = (
    ["learn", "--n", "32", "--learner", "bayes-posterior", "--m", "3", "--trials", "40"],
    ["learn", "--n", "16", "--target", "random-concept", "--m", "3", "--trials", "40"],
    ["--threads", "2", "learn", {"class": {"kind": "projections", "n": 4}, "dist": PRODUCT_LAW,
               "target": {"kind": "fixed", "i": 2}, "learner": "erm", "m": 3,
               "eps_acc": 0.1, "trials": 40}],
    ["cover", "--class-json", json.dumps({"kind": "projections", "n": 4}),
     "--dist-json", json.dumps(PRODUCT_LAW), "--level", "0.2"],
    ["vc", "--n", "4", "--universe", "default"],
    ["vc", "--class-json", json.dumps({"kind": "table", "domain": ["00", "01", "10"],
                                       "tables": ["000", "011", "101"]})],
    ["no-gap", "--domain-size", "4", "--m-grid", "1,2", "--trials", "40"],
    ["no-gap", "--dist-json", json.dumps({"kind": "finite", "support": ["1", "0"],
                                          "probs": [0.75, 0.25]}), "--trials", "40"],
    ["--format", "json", "vc", "--n", "4"],
)


def gaplab_corpus(workdir: Path) -> None:
    """Every golden spec at --threads 1 and 2, every benchmark workload
    invocation at the small --trials of test_bench_contract.py, and
    EXTRA_RUNS, each through cli.main in this process."""
    from test_bench_contract import EXTRA_FLAGS, SMALL_TRIALS, bench_workloads
    from test_golden import DOCUMENTS, GOLDEN

    from conftest import at_least_two_cpus
    from gaplab import cli

    os.cpu_count = at_least_two_cpus  # --threads 2 on a 1-CPU machine
    runs = []
    for name, (args, _) in sorted(GOLDEN.items()):
        for threads in ("1", "2"):
            document = DOCUMENTS.get(name)
            runs.append(["--threads", threads, *args] if document is None
                        else ["--threads", threads, *args, document])
    for name, workload in sorted(bench_workloads.WORKLOADS.items()):
        runs += [["--seed", "3", "--trials", str(SMALL_TRIALS[name]), *inv.args,
                  *EXTRA_FLAGS.get(name, ())] for inv in workload.invocations]
    runs += EXTRA_RUNS
    for k, run in enumerate(runs):
        args = [str(arg) for arg in run if not isinstance(arg, dict)]
        documents = [arg for arg in run if isinstance(arg, dict)]
        for document in documents:
            config = workdir / f"config{k}.json"
            config.write_text(json.dumps(document))
            args += ["--config", str(config)]
        cli.main.main(args=["--out", str(workdir / f"run{k}.out"), *args],
                      prog_name="gaplab", standalone_mode=False)


def planted_corpus(workdir: Path) -> None:
    """The planted package's own corpus: its `run()`."""
    from planted import table

    table.run()


CORPORA = {"gaplab": gaplab_corpus, "planted": planted_corpus}


def _codes_of(cls: type) -> list[types.CodeType]:
    """The code objects of the methods a class defines itself."""
    codes = []
    for value in vars(cls).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            codes += [f.__code__ for f in (value.fget, value.fset, value.fdel) if f]
        elif isinstance(value, types.FunctionType):
            codes.append(value.__code__)
    return codes


def entered(package: str, workdir: Path) -> list[str]:
    """Run the corpus of `package` under a profile hook, importing the package
    with it, and return `module.qualname` of each definition it entered."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        CORPORA[package](workdir)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    modules = {module.__file__: module.__name__.removeprefix(f"{package}.")
               for name, module in list(sys.modules.items())
               if name.startswith(f"{package}.") and getattr(module, "__file__", None)}
    # A class body is code too, run at import; only a function's counts.
    names = {f"{modules[code.co_filename]}.{code.co_qualname}" for code in seen
             if code.co_filename in modules and code.co_flags & inspect.CO_NEWLOCALS}
    for name, module in list(sys.modules.items()):
        if not name.startswith(f"{package}."):
            continue
        classes = [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == name]
        while classes:
            cls = classes.pop()
            classes += [v for v in vars(cls).values()
                        if isinstance(v, type) and v.__qualname__.startswith(f"{cls.__qualname__}.")]
            codes = _codes_of(cls)
            if not codes or any(code in seen for code in codes):
                names.add(f"{modules[module.__file__]}.{cls.__qualname__}")
    return sorted(names)


def definitions(source: str) -> list[str]:
    """The qualified name of each function, method and class `source`
    defines, at any depth, spelt as code objects spell it."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                found.append(prefix + child.name)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def unentered(package_dir: Path, pythonpath: Path) -> list[str]:
    """`module.qualname` of each definition in `package_dir` that its
    corpus, run in a subprocess, never enters."""
    defined = {f"{path.stem}.{name}" for path in sorted(package_dir.glob("*.py"))
               if path.name != "__init__.py" for name in definitions(path.read_text())}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "entered.json"
        subprocess.run([sys.executable, __file__, package_dir.name, str(out)], check=True,
                       cwd=tmp, env={**os.environ, "PYTHONPATH": str(pythonpath)})
        reached = set(json.loads(out.read_text()))
    # A class defined in a function is out of the subprocess's reach; it
    # counts when one of its methods is entered.
    reached |= {name for name in defined if any(r.startswith(f"{name}.") for r in reached)}
    return sorted(defined - reached)


def test_every_definition_is_entered_or_allowed():
    missing = unentered(SRC / "gaplab", SRC)
    assert [name for name in missing if name not in ALLOWED] == []
    assert set(ALLOWED) <= set(missing), "an ALLOWED entry is entered: drop it"


PLANTED = '''
class Table:
    def __init__(self):
        self.rows = {1: "a"}

    def keys(self):
        return list(self.rows)

    def size(self):
        return len(self.rows)


def run():
    return Table().size(), sorted({2: "b"}.keys())


ENTRY = run
'''


def test_the_check_flags_an_unentered_method_that_shares_a_read_name(tmp_path, monkeypatch):
    from test_imports import unread_definitions

    (tmp_path / "planted").mkdir()
    (tmp_path / "planted" / "__init__.py").write_text("")
    (tmp_path / "planted" / "table.py").write_text(PLANTED)
    monkeypatch.syspath_prepend(str(tmp_path))
    # The source check passes it: `keys` is read, on a dict.
    assert unread_definitions({"table": PLANTED}, "planted") == []
    assert unentered(tmp_path / "planted", tmp_path) == ["table.Table.keys"]


if __name__ == "__main__":
    sys.path.insert(0, str(TESTS))
    with tempfile.TemporaryDirectory() as work:
        Path(sys.argv[2]).write_text(json.dumps(entered(sys.argv[1], Path(work))))
