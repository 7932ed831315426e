"""Every name the benchmark's traced passes wrap exists where they look it up,
and each workload still calls the names it says it exercises.

`perfbench/run.py --trace 1` wraps each function where its caller finds it
(`vars(owner)[attr]`), and perfbench's own tests run against a fake lab.  A
refactor that drops or moves a traced name would pass both and only break
the traced benchmark pass, so this checks the lists against the package.
"""

import importlib
import sys
from pathlib import Path

import pytest

from gaplab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
bench_layers = importlib.import_module("bench_layers")
bench_trace = importlib.import_module("bench_trace")
bench_workloads = importlib.import_module("bench_workloads")

TRACED = bench_layers.ENTRY_POINTS + bench_layers.TRIAL_PATH + bench_layers.LAYER_FUNCTIONS

# Scale-down of each workload: a global --trials for every invocation, and
# flags appended to it.  Separation's delta is raised so that a search at
# this trial count can still certify an m.
SMALL_TRIALS = {"matched-pair": 20, "separation": 60, "no-gap": 200}
EXTRA_FLAGS = {"separation": ("--delta", "0.5")}


@pytest.mark.parametrize("where, attr, span", TRACED,
                         ids=[f"{where}.{attr}" for where, attr, _ in TRACED])
def test_traced_name_resolves(where, attr, span):
    owner = bench_trace.resolve_owner(where)
    assert attr in vars(owner), f"{where} has no attribute {attr!r} to trace as {span}"
    raw = vars(owner)[attr]
    assert callable(getattr(raw, "__func__", raw))


@pytest.mark.parametrize("name", sorted(bench_workloads.WORKLOADS))
def test_workload_reaches_what_it_exercises(name, tmp_path):
    workload = bench_workloads.WORKLOADS[name]
    tracer = bench_trace.Tracer()
    with bench_trace.Patches() as patches:
        bench_layers.trace_full(tracer, patches)
        for inv in workload.invocations:
            argv = ["--seed", "3", "--threads", "1", "--trials", str(SMALL_TRIALS[name]),
                    "--out", str(tmp_path / f"{inv.label}.csv"),
                    *inv.args, *EXTRA_FLAGS.get(name, ())]
            cli.main.main(args=argv, prog_name="gaplab", standalone_mode=False)
    spans = tracer.totals()
    # The pool span is timed only on the pass at full width, and one thread starts none.
    missing = [span for span in workload.exercises
               if span != bench_layers.POOL_SPAN and spans.get(span, {"calls": 0})["calls"] == 0]
    assert not missing, f"{name} records no calls of {missing}"
