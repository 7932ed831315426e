"""What a fresh gaplab process imports.

scipy.special is about half of gaplab's start-up time, and only the
posterior rule uses it.  numpy.random is needed only by a command that
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


def imported_modules(args: list[str], cwd: Path) -> set[str]:
    """Every module `python -m gaplab.cli args` imports, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gaplab.cli", *args],
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


def test_posterior_rule_imports_scipy_special(tmp_path):
    modules = imported_modules(
        ["--out", str(tmp_path / "out.csv"), "lower-bound", "--n", "1024", "--eps", "0.2",
         "--trials", "50"],
        tmp_path,
    )
    assert "scipy.special" in modules


def _run_python(code: str, cwd: Path) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


POOL_START_SCRIPT = """
import os
import sys
from gaplab import mc_harness
from gaplab.cli import main

print("loaded at import:", "scipy.special" in sys.modules)

class RecordingPool(mc_harness.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        print("loaded at pool start:", "scipy.special" in sys.modules)
        super().__init__(*args, **kwargs)

mc_harness.ProcessPoolExecutor = RecordingPool
cpus = os.cpu_count
os.cpu_count = lambda: max(2, cpus() or 1)  # --threads 2 on a 1-CPU machine
main({args!r}, standalone_mode=False)
"""


def _scipy_special_at_pool_start(args: list[str], cwd: Path) -> list[str]:
    out = _run_python(POOL_START_SCRIPT.format(args=args), cwd)
    return [line for line in out.splitlines() if line.startswith("loaded at")]


def test_separation_loads_scipy_special_before_the_pool_starts(tmp_path):
    lines = _scipy_special_at_pool_start(
        ["--threads", "2", "--out", "sep.csv", "separation", "--n-list", "16,64",
         "--learners", "erm,bayes-posterior", "--trials", "300", "--delta", "0.25",
         "--m-max", "64"],
        tmp_path,
    )
    assert lines == ["loaded at import: False", "loaded at pool start: True"]
    assert (tmp_path / "sep.csv").read_text().count("bayes-posterior") == 2


def test_learn_list_loads_scipy_special_before_the_pool_starts(tmp_path):
    # The erm entry runs first and starts the pool; the posterior entry's
    # config must already have loaded scipy.special by then.
    document = {
        "class": {"kind": "projections", "n": 64},
        "dist": {"kind": "pne", "n": 64, "eps": 0.1},
        "target": {"kind": "random-pair"},
        "m": 3, "eps_acc": 0.1, "trials": 200,
    }
    (tmp_path / "learn.json").write_text(json.dumps(
        [{**document, "learner": "erm"}, {**document, "learner": "bayes-posterior"}]
    ))
    lines = _scipy_special_at_pool_start(
        ["--threads", "2", "--out", "learn.csv", "learn", "--config", "learn.json"], tmp_path
    )
    assert lines == ["loaded at import: False", "loaded at pool start: True"]
    assert (tmp_path / "learn.csv").read_text().count("bayes-posterior") == 1


def test_lower_bound_list_loads_scipy_special_before_the_pool_starts(tmp_path):
    # As for learn: the erm entry starts the pool before the posterior entry runs.
    entry = {"n": 1024, "eps": 0.2, "trials": 200}
    (tmp_path / "lower-bound.json").write_text(json.dumps(
        [{**entry, "learner": "erm"}, {**entry, "learner": "bayes-posterior"}]
    ))
    lines = _scipy_special_at_pool_start(
        ["--threads", "2", "--out", "lb.csv", "lower-bound", "--config", "lower-bound.json"],
        tmp_path,
    )
    assert lines == ["loaded at import: False", "loaded at pool start: True"]
    assert (tmp_path / "lb.csv").read_text().count("bayes-posterior") == 1


def test_direct_posterior_rule_error_loads_bdtr(tmp_path):
    out = _run_python(
        "from gaplab.mc_harness import posterior_rule_error\n"
        "print(posterior_rule_error(5, 2, 0.1))\n",
        tmp_path,
    )
    assert 0.0 < float(out) < 1.0
