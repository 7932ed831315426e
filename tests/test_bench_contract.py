"""Every name the benchmark's traced passes wrap exists where they look it up.

`perfbench/run.py --trace 1` wraps each function where its caller finds it
(`vars(owner)[attr]`), and perfbench's own tests run against a fake lab.  A
refactor that drops or moves a traced name would pass both and only break
the traced benchmark pass, so this checks the lists against the package.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
bench_layers = importlib.import_module("bench_layers")
bench_trace = importlib.import_module("bench_trace")

TRACED = bench_layers.ENTRY_POINTS + bench_layers.TRIAL_PATH + bench_layers.LAYER_FUNCTIONS


@pytest.mark.parametrize("where, attr, span", TRACED,
                         ids=[f"{where}.{attr}" for where, attr, _ in TRACED])
def test_traced_name_resolves(where, attr, span):
    owner = bench_trace.resolve_owner(where)
    assert attr in vars(owner), f"{where} has no attribute {attr!r} to trace as {span}"
    raw = vars(owner)[attr]
    assert callable(getattr(raw, "__func__", raw))
