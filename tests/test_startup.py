"""What a fresh gaplab process imports, and what its parent keeps.

Each check runs in a new interpreter, because this test session may
already have imported them.  The costs are medians over fresh
interpreters on a 2-CPU x86-64 Linux VM (Python 3.11, numpy 2.4):

- scipy: no command imports it; the import alone costs about 19 MiB and a
  quarter of a second.
- numpy.random (1.9 MiB): needed only by a process that draws, so a parent
  whose trials all run on its workers never loads it.
- numpy.ma (0.5 MiB to import, 0.7 MiB off the peak of a matched-pair
  ks-stats parent): np.quantile reaches it through np.unique; no command
  loads it.
- concurrent.futures.process and multiprocessing (1.1 MiB, 13 ms): they
  load with the process pool, so --version and a --threads 1 run skip them.
- OpenBLAS threads: numpy's OpenBLAS starts a thread per CPU that spins for
  about 0.13 s of CPU although gaplab makes no BLAS call (`gaplab
  --version` took 0.39 s of CPU, 0.22 s with one thread).  Importing gaplab
  sets OPENBLAS_NUM_THREADS to 1 unless the user set it.
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
        ["--threads", "1", "no-gap", "--domain-size", "4", "--m-grid", "1,2", "--trials", "50"],
        ["lower-bound", "--n", "1024", "--eps", "0.2", "--learner", "erm",
         "--trials", "50"],
        ["ks-stats", "--n", "1024", "--eps", "0.2", "--trials", "50"],
    ],
    ids=["version", "no-gap", "lower-bound-erm", "ks-stats"],
)
def test_command_does_not_import_scipy_special(tmp_path, args):
    # None of these runs fans out: --threads is 1, the default.
    modules = imported_modules(["--out", str(tmp_path / "out.csv"), *args], tmp_path)
    assert "gaplab.mc_harness" in modules
    assert "scipy.special" not in modules
    assert "numpy.ma" not in modules
    assert "concurrent.futures.process" not in modules


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
    assert "numpy.ma" not in modules
    assert "bayes-posterior" in (tmp_path / "out.csv").read_text()


# LIFTED_CPUS_MAIN, then the last line of stdout lists which of numpy.random
# and numpy.ma this process holds as it exits.  A forked worker leaves
# through os._exit, so only the parent prints.
HELD_AT_EXIT_MAIN = LIFTED_CPUS_MAIN.replace("main(sys.argv[1:])", """
try:
    main(sys.argv[1:])
finally:
    print(sorted({"numpy.random", "numpy.ma"} & set(sys.modules)))
""")


@pytest.mark.parametrize(
    "args",
    [
        ["lower-bound", "--n", "1024", "--eps", "0.2", "--trials", "200"],
        ["ks-stats", "--n", "1024", "--eps", "0.2", "--trials", "200"],
        ["separation", "--n-list", "16,64", "--learners", "erm,bayes-posterior",
         "--trials", "300", "--delta", "0.25", "--m-max", "64"],
        ["no-gap", "--domain-size", "4", "--m-grid", "1,2", "--trials", "200"],
    ],
    ids=["lower-bound", "ks-stats", "separation", "no-gap"],
)
def test_a_parent_whose_trials_all_fan_out_loads_neither_numpy_random_nor_numpy_ma(
        tmp_path, args):
    # Every trial runs on the two workers, so the parent, which sets a
    # command's peak RSS, draws nothing.
    proc = subprocess.run(
        [sys.executable, "-c", HELD_AT_EXIT_MAIN, "--threads", "2", "--out", "out.csv", *args],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_importing_gaplab_holds_openblas_to_one_thread_unless_set():
    code = "import os, gaplab; print(os.environ['OPENBLAS_NUM_THREADS'])"
    for preset, expected in ((None, "1"), ("3", "3")):
        env = _env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == expected
