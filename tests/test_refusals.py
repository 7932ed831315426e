"""Every row of the refusal corpus (tests/refusals.py) against the whole
refusal contract, and the corpus kept whole: each command has rows, and a
test elsewhere that asserts exit 2 is one STAYS names."""

import ast
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from gaplab import cli, mc_harness
from refusals import ROWS, STAYS

TESTS = Path(__file__).resolve().parent
# The work a refused spec must never reach.
WORK = ((mc_harness, "_map_trials"), (cli, "build_cover"), (cli, "vc_dimension_bruteforce"),
        (mc_harness.TrialPool, "_start"))


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_a_refused_spec_exits_2_before_any_work(tmp_path, monkeypatch, row):
    ran = []

    def refuse(name):
        def call(*args, **kwargs):
            ran.append(name)
            raise AssertionError(f"{name} ran")
        return call

    for owner, name in WORK:
        monkeypatch.setattr(owner, name, refuse(name))
    monkeypatch.chdir(tmp_path)
    args = list(row.argv)
    if row.config is not None:
        config = row.config if isinstance(row.config, bytes) else json.dumps(row.config).encode()
        (tmp_path / "cfg.json").write_bytes(config)
        args += ["--config", "cfg.json"]
    res = CliRunner().invoke(cli.main, args, env=row.env)
    assert res.exit_code == 2, res.output
    assert ran == []
    assert res.stdout == ""
    last = res.stderr.splitlines()[-1]
    if last.startswith("spec error: "):
        assert res.stderr == f"{last}\n"
    else:
        assert last.startswith("Error: Invalid value for '"), res.stderr
    assert row.fragment in f"{last}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == (
        [] if row.config is None else ["cfg.json"])


def _asserts_exit_2(source: str) -> bool:
    return re.search(r"\b(exit_code|returncode) == 2\b", source) is not None


def exit_2_tests(path: Path) -> list[str]:
    """`file::name` (or `file::Class::name`) of each test or helper in `path`
    whose body asserts exit code 2."""
    source = path.read_text()
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}::")
            elif (isinstance(child, ast.FunctionDef)
                  and _asserts_exit_2(ast.get_source_segment(source, child))):
                found.append(f"{path.name}::{prefix}{child.name}")

    visit(ast.parse(source), "")
    return found


def test_the_corpus_is_whole():
    found = [name for path in sorted(TESTS.glob("test_*.py")) if path.name != Path(__file__).name
             for name in exit_2_tests(path)]
    assert [name for name in found if name not in STAYS] == [], "add rows to tests/refusals.py"
    assert set(STAYS) <= set(found), "a STAYS entry asserts no exit 2: drop it"
    ids = [row.id for row in ROWS]
    assert len(set(ids)) == len(ids), "row ids repeat"
    names = {cmd.name for cmd in cli.COMMANDS}
    covered = {next(arg for arg in row.argv if arg in names) for row in ROWS}
    assert covered == names
