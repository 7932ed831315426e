"""Tests of the benchmark's own metric derivations, on fake workloads.

Run from the repository root (takes about a second):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

from bench_layers import PER_LAYER, layer_metrics
from bench_trace import Patches, Tracer, fanout_efficiency, timed_pool_class, trace_attr
from bench_workloads import WORKLOADS, digest
from run import END_TO_END, Repetition, check_bodies

HERE = Path(__file__).resolve().parent


class FakeClock:
    """A clock that reads the times it is given, in order."""

    def __init__(self, *ticks: float):
        self.ticks = list(ticks)

    def __call__(self) -> float:
        return self.ticks.pop(0)


def test_self_time_subtracts_children():
    t = Tracer(FakeClock(0, 1, 3, 4, 5, 10))
    t.enter("a")
    t.enter("b")
    t.exit()
    t.enter("c")
    t.exit()
    t.exit()
    spans = t.totals()
    assert spans["a"] == {"calls": 1, "busy_s": 10, "self_s": 7}
    assert spans["b"] == {"calls": 1, "busy_s": 2, "self_s": 2}
    assert spans["c"] == {"calls": 1, "busy_s": 1, "self_s": 1}
    assert [p["path"] for p in t.call_paths()] == ["a", "a > b", "a > c"]


def test_reentered_span_is_busy_once_and_paths_stay_apart():
    t = Tracer(FakeClock(0, 2, 5, 10, 11, 12))
    t.enter("f")
    t.enter("f")
    t.exit()
    t.exit()
    t.enter("g")
    t.exit()
    spans = t.totals()
    assert spans["f"] == {"calls": 2, "busy_s": 10, "self_s": 10}
    assert {p["path"]: p["calls"] for p in t.call_paths()} == {"f": 1, "f > f": 1, "g": 1}


def test_fanout_efficiency():
    assert fanout_efficiency(4.0, 2 * 2.5) == pytest.approx(0.8)
    assert fanout_efficiency(3.0, 0.0) == 0.0


def test_timed_pool_counts_workers_times_span():
    class FakePool:
        def __init__(self, max_workers=None):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    t = Tracer(FakeClock(1.0, 4.0))
    pool_cls = timed_pool_class(t, FakePool, "mc_harness.pool")
    with pool_cls(max_workers=2) as pool:
        assert pool.max_workers == 2
    assert t.totals()["mc_harness.pool"]["calls"] == 1
    assert t.totals()["mc_harness.pool"]["busy_s"] == 3.0
    assert t.counters["mc_harness.pool.worker_s"] == 2 * 3.0


@pytest.fixture
def fake_lab(monkeypatch):
    """A two-function module whose caller looks its callee up by name."""
    mod = types.ModuleType("fakelab")
    exec(
        "def sample_bit_matrix(dist, m, gen):\n"
        "    return [0] * m\n"
        "def run_trial(dist, m):\n"
        "    return sum(sample_bit_matrix(dist, m, None))\n",
        mod.__dict__,
    )
    monkeypatch.setitem(sys.modules, "fakelab", mod)
    return mod


def test_bytes_computed_is_eight_m_n(fake_lab):
    from bench_layers import _bytes_drawn

    dist = types.SimpleNamespace(n=1000)
    t = Tracer()
    with Patches() as patches:
        trace_attr(t, patches, "fakelab", "sample_bit_matrix", "distributions.sample_bit_matrix",
                   count=_bytes_drawn)
        trace_attr(t, patches, "fakelab", "run_trial", "mc_harness.run_trial")
        for m in (2, 3, 5):
            fake_lab.run_trial(dist, m)
    assert t.counters["distributions.sample_bit_matrix.bytes_computed"] == 8 * 1000 * (2 + 3 + 5)
    spans = t.totals()
    assert spans["mc_harness.run_trial"]["calls"] == 3
    assert spans["distributions.sample_bit_matrix"]["calls"] == 3
    assert [p["path"] for p in t.call_paths()] == [
        "mc_harness.run_trial", "mc_harness.run_trial > distributions.sample_bit_matrix"]


def test_patches_restore_the_program(fake_lab):
    original = fake_lab.sample_bit_matrix
    with Patches() as patches:
        trace_attr(Tracer(), patches, "fakelab", "sample_bit_matrix", "x")
        assert fake_lab.sample_bit_matrix is not original
    assert fake_lab.sample_bit_matrix is original


def test_classmethod_is_traced_on_the_class(monkeypatch):
    class Sample:
        @classmethod
        def from_points(cls, points):
            return cls, len(points)

    mod = types.ModuleType("fakesample")
    mod.Sample = Sample
    monkeypatch.setitem(sys.modules, "fakesample", mod)
    t = Tracer()
    with Patches() as patches:
        trace_attr(t, patches, "fakesample:Sample", "from_points", "learners.from_points")
        assert Sample.from_points([1, 2]) == (Sample, 2)
    assert t.totals()["learners.from_points"]["calls"] == 1
    assert isinstance(vars(Sample)["from_points"], classmethod)


def test_renamed_function_fails_loudly(fake_lab):
    with Patches() as patches, pytest.raises(KeyError):
        trace_attr(Tracer(), patches, "fakelab", "no_such_function", "x")


def test_fail_share_counts_a_digest_mismatch():
    workload = WORKLOADS["matched-pair"]
    bodies = {inv.label: f"body of {inv.label}\n".encode() for inv in workload.invocations}
    golden = {label: digest(body) for label, body in bodies.items()}
    golden["ks-stats"] = digest(b"another stream\n")
    rep = Repetition()
    check_bodies(workload, bodies, golden, rep)
    assert (rep.attempted, rep.failed) == (3, 1)
    assert rep.failed / rep.attempted == pytest.approx(1 / 3)
    assert "ks-stats" not in rep.bodies


def test_missing_body_and_broken_invariant_fail():
    workload = WORKLOADS["no-gap"]
    header = "domain_size,dist,m,trials,violations\n"
    good = header + "".join(f"12,geometric,{m},5,0\n" for m in (1, 8, 16, 24))
    rep = Repetition()
    check_bodies(workload, {"no-gap": good.encode()}, None, rep)
    assert (rep.attempted, rep.failed) == (1, 0)
    check_bodies(workload, {"no-gap": good.replace("16,5,0", "16,5,1").encode()}, None, rep)
    check_bodies(workload, {"no-gap": None}, None, rep)
    assert (rep.attempted, rep.failed) == (3, 2)


def test_layer_metrics_from_three_passes():
    light, full, fan = Tracer(FakeClock(0, 6)), Tracer(FakeClock(0, 1, 2, 3)), Tracer()
    light.enter("mc_harness.trial_path")
    light.exit()
    full.enter("cli")
    full.enter("mc_harness.run_trial")
    full.exit()
    full.exit()
    full.counters["mc_harness.search.points"] = 4
    full.counters["mc_harness.search.decided"] = 3
    fan.counters["mc_harness.pool.worker_s"] = 7.5
    out = layer_metrics(light, full, fan, light_wall_s=8.0, full_wall_s=9.5)
    assert list(out) == list(PER_LAYER)
    assert out["mc_harness.run_trial.calls"] == 1
    assert out["cli.self_s"] == 2
    assert out["mc_harness.search.decided_share"] == 0.75
    assert out["mc_harness.fanout_efficiency"] == pytest.approx(6 / 7.5)
    assert out["trace.overhead_s"] == 1.5
    assert out["learners.erm.calls"] == 0


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    setup = max(doc["end_to_end"], key=lambda m: m["bound"])
    assert setup["name"] == "setup_s"


def test_golden_digests_cover_every_invocation():
    doc = json.loads((HERE / "golden.json").read_text())
    for name, workload in WORKLOADS.items():
        assert doc[name], name
        for seed, digests in doc[name].items():
            assert set(digests) == {inv.label for inv in workload.invocations}, (name, seed)
