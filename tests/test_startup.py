"""What a fresh gaplab process imports.

No command imports scipy: the import alone costs about 19 MiB and a
quarter of a second.  numpy.random is needed only by a command that
draws.  Each check runs in a new interpreter, because this test session may
already have imported them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gaplab

SRC = str(Path(gaplab.__file__).resolve().parents[1])


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def imported_modules(args: list[str], cwd: Path,
                     program: tuple[str, ...] = ("-m", "gaplab.cli")) -> set[str]:
    """Every module `python program args` imports, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *program, *args],
        cwd=cwd, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "args",
    [
        ["--version"],
        ["no-gap", "--domain-size", "4", "--m-grid", "1,2", "--trials", "50"],
        ["lower-bound", "--n", "1024", "--eps", "0.2", "--learner", "erm",
         "--trials", "50"],
        ["ks-stats", "--n", "1024", "--eps", "0.2", "--trials", "50"],
    ],
    ids=["version", "no-gap", "lower-bound-erm", "ks-stats"],
)
def test_command_does_not_import_scipy_special(tmp_path, args):
    modules = imported_modules(["--out", str(tmp_path / "out.csv"), *args], tmp_path)
    assert "gaplab.mc_harness" in modules
    assert "scipy.special" not in modules


def test_version_does_not_import_numpy_random(tmp_path):
    modules = imported_modules(["--version"], tmp_path)
    assert "numpy" in modules
    assert "numpy.random" not in modules


# gaplab.cli's main with os.cpu_count() at least 2, so that --threads 2 runs
# on a 1-CPU machine.
LIFTED_CPUS_MAIN = """
import os
import sys
cpus = os.cpu_count
os.cpu_count = lambda: max(2, cpus() or 1)
from gaplab.cli import main
main(sys.argv[1:])
"""


@pytest.mark.parametrize(
    "args",
    [
        ["lower-bound", "--n", "1024", "--eps", "0.2", "--trials", "200"],
        ["separation", "--n-list", "16,64", "--learners", "erm,bayes-posterior",
         "--trials", "300", "--delta", "0.25", "--m-max", "64"],
        ["learn", "--config", "learn.json"],
    ],
    ids=["lower-bound-posterior", "separation", "learn-list"],
)
def test_no_command_imports_scipy(tmp_path, args):
    # Each runs the posterior rule on two workers; -X importtime reports the
    # workers' imports too.  The learn list's erm entry starts the pool.
    document = {
        "class": {"kind": "projections", "n": 64},
        "dist": {"kind": "pne", "n": 64, "eps": 0.1},
        "target": {"kind": "random-pair"},
        "m": 3, "eps_acc": 0.1, "trials": 200,
    }
    (tmp_path / "learn.json").write_text(json.dumps(
        [{**document, "learner": "erm"}, {**document, "learner": "bayes-posterior"}]
    ))
    modules = imported_modules(["--threads", "2", "--out", "out.csv", *args], tmp_path,
                               ("-c", LIFTED_CPUS_MAIN))
    assert "gaplab.mc_harness" in modules
    assert not {name for name in modules if name.split(".")[0] == "scipy"}
    assert "bayes-posterior" in (tmp_path / "out.csv").read_text()
