import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from gaplab import cli, mc_harness
from gaplab.cli import main
from refusals import LEARN_DOCUMENT, PNE_4, wide_table


@pytest.fixture()
def runner():
    return CliRunner()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCover:
    def test_pne_small_cover(self, runner, tmp_path):
        out = tmp_path / "cover.csv"
        res = runner.invoke(
            main,
            ["--seed", "5", "--out", str(out), "cover",
             "--n", "1024", "--eps", "0.05", "--i", "7", "--level", "0.1"],
        )
        assert res.exit_code == 0, res.output
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["size"] == "2"
        assert rows[0]["members"] == "1|7"
        assert float(rows[0]["certificate"]) <= 0.1

    def test_level_one_single_member(self, runner, tmp_path):
        out = tmp_path / "cover.csv"
        res = runner.invoke(
            main,
            ["--out", str(out), "cover", "--n", "64", "--eps", "0.05", "--level", "1.0"],
        )
        assert res.exit_code == 0
        assert read_csv(out)[0]["size"] == "1"

    def test_table_class_certificate(self, runner, tmp_path):
        out = tmp_path / "cover.csv"
        cls = {"kind": "table", "domain": ["00", "01", "10"],
               "tables": ["000", "100", "110", "111"]}
        dist = {"kind": "finite", "support": ["00", "01", "10"],
                "probs": [0.5, 0.25, 0.25]}
        res = runner.invoke(
            main,
            ["--out", str(out), "cover", "--class-json", json.dumps(cls),
             "--dist-json", json.dumps(dist), "--level", "0.3"],
        )
        assert res.exit_code == 0, res.output
        row = read_csv(out)[0]
        assert float(row["certificate"]) <= 0.3


    def test_table_class_from_config_objects(self, runner, tmp_path):
        entry = {
            "class_json": {"kind": "table", "domain": ["00", "01", "10"],
                           "tables": ["000", "100", "110", "111"]},
            "dist_json": {"kind": "finite", "support": ["00", "01", "10"],
                          "probs": [0.5, 0.25, 0.25]},
            "level": 0.3,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(entry))
        out = tmp_path / "cover.csv"
        res = runner.invoke(main, ["--out", str(out), "cover", "--config", str(path)])
        assert res.exit_code == 0, res.output
        assert read_csv(out)[0]["class_kind"] == "table"


    def test_pne_flags_use_the_closed_form(self, runner, tmp_path, monkeypatch):
        # The flag path always builds a pne member, so the greedy scan never
        # runs; the body is the one the scan gave.
        monkeypatch.setattr("gaplab.metric_cover.greedy_packing_cover", _no_scan)
        out = tmp_path / "cover.csv"
        res = runner.invoke(
            main, ["--out", str(out), "cover", "--n", "4096", "--eps", "0.05", "--i", "7"]
        )
        assert res.exit_code == 0, res.output
        assert out.read_text() == (
            "class_kind,num_concepts,level,size,members,certificate,vc_dim,dudley_log,"
            "dudley_value,seed,spec_hash\n"
            "projections,4096,0.1,2,1|7,0.095,12,89.0123769,4.54552576e+38,1592614637,"
            "776da5d60a069358\n"
        )

    def test_pne_member_json_uses_the_closed_form(self, runner, tmp_path, monkeypatch):
        # A pne member given as JSON is the member the flags build: the same
        # spec, the same body, and no O(n^2) scan, which computes distance rows.
        monkeypatch.setattr("gaplab.metric_cover._distance_rows_projections", _no_scan)
        bodies = {}
        for how, spec in {
            "flags": ["--n", "65536", "--eps", "0.05", "--i", "3"],
            "json": ["--class-json", json.dumps({"kind": "projections", "n": 65536}),
                     "--dist-json", json.dumps({"kind": "pne", "n": 65536, "eps": 0.05,
                                                "i": 3}),
                     "--level", "0.1"],
        }.items():
            out = tmp_path / f"{how}.csv"
            res = runner.invoke(main, ["--out", str(out), "cover", *spec])
            assert res.exit_code == 0, res.output
            bodies[how] = out.read_text()
        assert bodies["json"] == bodies["flags"]
        assert read_csv(tmp_path / "json.csv")[0]["members"] == "1|3"


def _no_scan(*args, **kwargs):
    raise AssertionError("a cover was built")


class TestVc:
    def test_projections_n8(self, runner, tmp_path):
        out = tmp_path / "vc.csv"
        res = runner.invoke(main, ["--out", str(out), "vc", "--n", "8"])
        assert res.exit_code == 0
        assert read_csv(out)[0]["dimension"] == "3"

    def test_manifest_written(self, runner, tmp_path):
        out = tmp_path / "vc.csv"
        res = runner.invoke(main, ["--out", str(out), "vc", "--n", "4"])
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / "vc.manifest.json").read_text())
        assert manifest["outputs"] == [str(out)]
        assert "started_at" in manifest and "finished_at" in manifest
        assert manifest["workers"] == 1
        assert manifest["cpu_count"] == os.cpu_count()
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
        assert "scipy_version" not in manifest  # no number depends on scipy
        # this process's own peak; the test session's, so only its type and sign are known
        assert type(manifest["peak_rss_mib"]) is float and manifest["peak_rss_mib"] > 0

    def test_manifest_resolves_auto_workers(self, runner, tmp_path, monkeypatch):
        # --threads 0 counts the CPUs this process may run on, not the machine's.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        base = ["--seed", "3", "learn", "--n", "32", "--m", "3", "--trials", "150"]
        runs = {}
        for threads in ("0", "2"):
            out = tmp_path / f"t{threads}.csv"
            res = runner.invoke(main, ["--threads", threads, "--out", str(out), *base])
            assert res.exit_code == 0, res.output
            manifest = json.loads(out.with_suffix(".manifest.json").read_text())
            runs[threads] = manifest["workers"], out.read_bytes()
        assert runs["0"][0] == 1 and runs["2"][0] == 2
        assert runs["0"][1] == runs["2"][1]

    def test_manifest_counts_the_workers_that_ran(self, runner, tmp_path):
        # Three trials do not fan out over two workers, so the run stays serial.
        out = tmp_path / "learn.csv"
        res = runner.invoke(main, ["--threads", "2", "--trials", "3", "--out", str(out),
                                   "learn", "--n", "32", "--m", "3"])
        assert res.exit_code == 0, res.output
        assert json.loads(out.with_suffix(".manifest.json").read_text())["workers"] == 1


class TestLearn:
    def test_basic_run_and_reproducibility(self, runner, tmp_path):
        args = ["--seed", "7", "learn", "--n", "64", "--eps", "0.1",
                "--learner", "erm", "--m", "5", "--trials", "200"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1 = runner.invoke(main, ["--out", str(out1)] + args)
        r2 = runner.invoke(main, ["--out", str(out2)] + args)
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_do_not_change_bytes(self, runner, tmp_path):
        base = ["--seed", "3", "learn", "--n", "32", "--m", "3", "--trials", "150"]
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        r1 = runner.invoke(main, ["--threads", "1", "--out", str(out1)] + base)
        r2 = runner.invoke(main, ["--threads", "2", "--out", str(out2)] + base)
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("args", [
        ["learn", "--config", {
            "class": {"kind": "table", "domain": ["000", "110", "011", "101", "111"],
                      "tables": ["00000", "10110", "01101", "11111", "10001"]},
            "dist": {"kind": "finite", "support": ["011", "111", "000", "110"],
                     "probs": [0.5, 0.25, 0.125, 0.125]},
            "target": {"kind": "random-concept"}, "learner": "erm", "m": 2,
            "eps_acc": 0.1, "trials": 150}],
        ["no-gap", "--domain-size", "12", "--dist", "geometric", "--m-grid", "1,12,24",
         "--trials", "150"],
    ], ids=["table-document", "no-gap-12-points"])
    def test_point_set_runs_keep_their_bytes_at_two_threads(self, runner, tmp_path, args):
        # A support held in another order than its domain, and the no-gap grid.
        if isinstance(args[-1], dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(args[-1]))
            args = [*args[:-1], str(path)]
        bodies = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.csv"
            res = runner.invoke(main, ["--seed", "3", "--threads", threads, "--out", str(out),
                                       *args])
            assert res.exit_code == 0, res.output
            bodies.append(out.read_bytes())
        assert bodies[0] == bodies[1]

    def test_seed_changes_output(self, runner, tmp_path):
        base = ["learn", "--n", "32", "--m", "1", "--trials", "150"]
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        runner.invoke(main, ["--seed", "1", "--out", str(out1)] + base)
        runner.invoke(main, ["--seed", "2", "--out", str(out2)] + base)
        assert out1.read_bytes() != out2.read_bytes()

    def test_env_seed_fallback(self, runner, tmp_path):
        out = tmp_path / "env.csv"
        res = runner.invoke(
            main,
            ["--out", str(out), "learn", "--n", "16", "--m", "1", "--trials", "50"],
            env={"GAPLAB_SEED": "12345"},
        )
        assert res.exit_code == 0
        assert read_csv(out)[0]["seed"] == "12345"

    def test_trial_config_file(self, runner, tmp_path):
        cfg = {
            "class": {"kind": "projections", "n": 16},
            "dist": {"kind": "pne", "n": 16, "eps": 0.1},
            "target": {"kind": "random-pair"},
            "learner": "erm",
            "m": 2,
            "eps_acc": 0.0625,
            "trials": 60,
            "seed": {"master": 9},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "learn.csv"
        res = runner.invoke(main, ["--out", str(out), "learn", "--config", str(path)])
        assert res.exit_code == 0, res.output
        assert read_csv(out)[0]["m"] == "2"

    def test_config_list_sweep_with_flag_override(self, runner, tmp_path):
        entries = [{"m": 1}, {"m": 3}, {"m": 5}]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(entries))
        out = tmp_path / "sweep.csv"
        res = runner.invoke(
            main,
            ["--out", str(out), "learn", "--config", str(path),
             "--n", "16", "--trials", "40"],
        )
        assert res.exit_code == 0, res.output
        rows = read_csv(out)
        assert [r["m"] for r in rows] == ["1", "3", "5"]
        assert all(r["trials"] == "40" for r in rows)


    def test_learn_and_lower_bound_offer_the_projection_learners(self, runner):
        choices = f"[{'|'.join(mc_harness.PROJECTION_LEARNERS)}]"
        for command in ("learn", "lower-bound"):
            res = runner.invoke(main, [command, "--help"])
            assert res.exit_code == 0, res.output
            assert f"--learner {choices}" in res.output


class TestSeparation:
    def test_small_run(self, runner, tmp_path):
        out = tmp_path / "sep.csv"
        res = runner.invoke(
            main,
            ["--seed", "11", "--out", str(out), "separation",
             "--n-list", "16,64", "--learners", "cover", "--trials", "700",
             "--delta", "0.2", "--m-max", "64"],
        )
        assert res.exit_code == 0, res.output
        rows = read_csv(out)
        assert [r["n"] for r in rows] == ["16", "64"]
        assert all(int(r["m_star"]) >= 1 for r in rows)
        assert set(rows[0]) >= {"n", "learner", "m_star", "ci_low", "ci_high"}


    def test_unbracketed_search_exits_3(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["--out", str(tmp_path / "x.csv"), "separation",
             "--n-list", "4096", "--learners", "erm", "--trials", "150",
             "--delta", "0.3", "--m-max", "1"],
        )
        assert res.exit_code == 3


class TestLowerBound:
    def test_small_run_flags(self, runner, tmp_path):
        out = tmp_path / "lb.csv"
        res = runner.invoke(
            main,
            ["--out", str(out), "lower-bound", "--n", "1024", "--eps", "0.2",
             "--learner", "erm", "--trials", "150"],
        )
        assert res.exit_code == 0, res.output
        row = read_csv(out)[0]
        assert row["outside_regime"] == "true"
        assert row["m"] == "1"
        assert row["above_one_sixteenth"] in ("true", "false")


class TestKsStats:
    def test_small_run(self, runner, tmp_path):
        out = tmp_path / "ks.csv"
        res = runner.invoke(
            main,
            ["--out", str(out), "ks-stats", "--n", "256", "--eps", "0.2",
             "--trials", "100"],
        )
        assert res.exit_code == 0, res.output
        row = read_csv(out)[0]
        assert row["m"] == "1"  # floor(ln 256 / (3 ln 5))
        assert 0.0 <= float(row["ratio_freq"]) <= 1.0


class TestNoGap:
    def test_rows_and_zero_violations(self, runner, tmp_path):
        out = tmp_path / "ng.csv"
        res = runner.invoke(
            main,
            ["--out", str(out), "no-gap", "--domain-size", "4",
             "--m-grid", "1,2,4", "--trials", "300"],
        )
        assert res.exit_code == 0, res.output
        rows = read_csv(out)
        assert len(rows) == 3
        assert all(r["violations"] == "0" for r in rows)

    def test_reproducible_bytes(self, runner, tmp_path):
        args = ["--seed", "21", "no-gap", "--domain-size", "4", "--m-grid", "2",
                "--trials", "150"]
        out1, out2 = tmp_path / "n1.csv", tmp_path / "n2.csv"
        runner.invoke(main, ["--out", str(out1)] + args)
        runner.invoke(main, ["--out", str(out2)] + args)
        assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "command, entry",
    [
        ("separation", {"n_list": "16", "learners": "cover", "delta": 0.9, "m_max": 64}),
        ("lower-bound", {"n": 256, "eps": 0.2, "learner": "erm"}),
        ("ks-stats", {"n": 256, "eps": 0.2}),
        ("no-gap", {"domain_size": 4, "m_grid": "1"}),
        ("learn", {"n": 16, "m": 1}),
    ],
)
def test_trials_key_in_config(runner, tmp_path, command, entry):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**entry, "trials": 7}))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), command, "--config", str(path)])
    assert res.exit_code == 0, res.output
    assert {r["trials"] for r in read_csv(out)} == {"7"}


def test_single_entry_list_keeps_spec_hash(runner, tmp_path):
    args = ["bounds", "--eps", "0.2"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([{"d": 4}]))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert runner.invoke(main, ["--out", str(a), *args, "--config", str(path)]).exit_code == 0
    assert runner.invoke(main, ["--out", str(b), *args, "--d", "4"]).exit_code == 0
    assert json.loads(a.read_text()) == json.loads(b.read_text())


def _fail_unexpectedly(*args, **kwargs):
    raise ValueError("unexpected failure")


def test_unexpected_error_exits_3(runner, tmp_path, monkeypatch):
    monkeypatch.setattr("gaplab.cli.estimate_failure_prob", _fail_unexpectedly)
    res = runner.invoke(main, ["--out", str(tmp_path / "x.csv"), "learn", "--n", "16"])
    assert res.exit_code == 3
    assert "runtime failure: unexpected failure" in res.output


def test_lower_bound_outside_the_regime_warns_in_one_line(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path / "lb.csv"), "lower-bound", "--n", "4",
                               "--eps", "0.2", "--trials", "30"])
    assert res.exit_code == 0, res.output
    assert res.stderr.splitlines() == [
        "warning: n=4 is below 600/eps^3 = 75000; outside the regime the bound assumes"]


# gaplab.cli's main with at least two CPUs, as conftest gives this process.
_MAIN_ON_TWO_CPUS = ("import os; cpus = os.cpu_count; os.cpu_count = lambda: max(2, cpus() or 1)"
                     "; from gaplab.cli import main; main()")


@pytest.mark.parametrize("entries, bounds", [
    ([{"n": 4, "eps": 0.2}], [(4, 75000)]),
    ([{"n": 4, "eps": 0.2}, {"n": 16, "eps": 0.1}], [(4, 75000), (16, 600000)]),
], ids=["one-entry", "two-entries"])
def test_lower_bound_on_two_workers_writes_one_regime_line_per_entry(tmp_path, entries, bounds):
    # A new process, so that a line a worker wrote to stderr would show too.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps([{**entry, "trials": 30} for entry in entries]))
    paths = (str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run([sys.executable, "-c", _MAIN_ON_TWO_CPUS, "--threads", "2", "--out",
                           str(tmp_path / "lb.csv"), "lower-bound", "--config", str(config)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        f"warning: n={n} is below 600/eps^3 = {bound}; outside the regime the bound assumes"
        for n, bound in bounds]


def _run_out_of_memory(*args, **kwargs):
    raise MemoryError()


def test_error_without_text_prints_its_type(runner, tmp_path, monkeypatch):
    monkeypatch.setattr("gaplab.cli.estimate_failure_prob", _run_out_of_memory)
    res = runner.invoke(main, ["--out", str(tmp_path / "x.csv"), "learn", "--n", "16"])
    assert res.exit_code == 3
    assert "runtime failure: MemoryError" in res.output


def test_debug_switch_reraises_unexpected_error(runner, tmp_path, monkeypatch):
    monkeypatch.setattr("gaplab.cli.estimate_failure_prob", _fail_unexpectedly)
    res = runner.invoke(main, ["--out", str(tmp_path / "x.csv"), "learn", "--n", "16"],
                        env={"GAPLAB_DEBUG": "1"})
    assert isinstance(res.exception, ValueError)
    assert "runtime failure" not in res.output


def test_config_dist_key_is_honoured(runner, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"domain_size": 4, "m_grid": "1", "trials": 50,
                                "dist": "geometric"}))
    out = tmp_path / "ng.csv"
    res = runner.invoke(main, ["--out", str(out), "no-gap", "--config", str(path)])
    assert res.exit_code == 0, res.output
    assert read_csv(out)[0]["dist"] == "geometric"


def test_config_i_key_is_honoured(runner, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 64, "eps": 0.05, "i": 3}))
    out = tmp_path / "cover.csv"
    res = runner.invoke(main, ["--out", str(out), "cover", "--config", str(path)])
    assert res.exit_code == 0, res.output
    assert read_csv(out)[0]["members"] == "1|3"


def test_config_k_key_is_honoured(runner, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k": 4}))
    out = tmp_path / "bounds.json"
    res = runner.invoke(main, ["--out", str(out), "bounds", "--config", str(path)])
    assert res.exit_code == 0, res.output
    assert json.loads(out.read_text())["inputs"]["K"] == 4


def test_global_trials_overrides_a_learn_document(runner, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([{**LEARN_DOCUMENT, "trials": 60},
                                {"n": 16, "m": 2, "trials": 60}]))
    out = tmp_path / "learn.csv"
    res = runner.invoke(main, ["--trials", "25", "--out", str(out), "learn",
                               "--config", str(path)])
    assert res.exit_code == 0, res.output
    assert [r["trials"] for r in read_csv(out)] == ["25", "25"]


def test_a_flag_fills_a_key_a_learn_document_leaves_out(runner, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**LEARN_DOCUMENT, "trials": 20}))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), "learn", "--config", str(path),
                               "--gamma", "0.05"])
    assert res.exit_code == 0, res.output
    assert read_csv(out)[0]["gamma"] == "0.05"


def _learn_bytes(runner, tmp_path, name, args, config=None, threads="1"):
    """The CSV a seeded `learn` run writes, from flags and, if given, a config."""
    if config is not None:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        args = [*args, "--config", str(path)]
    out = tmp_path / f"{name}.csv"
    res = runner.invoke(main, ["--seed", "3", "--threads", threads, "--out", str(out),
                               "learn", *args])
    assert res.exit_code == 0, res.output
    return out.read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("target, target_object, member", [
    ("fixed:3", {"kind": "fixed", "i": 3}, {"i": 1}),
    ("random-pair", {"kind": "random-pair"}, {}),
    ("random-concept", {"kind": "random-concept"}, {"i": 1}),
])
def test_learn_flags_write_what_their_document_writes(runner, tmp_path, target,
                                                      target_object, member, threads):
    # The flags stand for the projections under the pne family, for
    # random-pair, or under its member P_1; the CSV holds the spec hash.
    flags = ["--n", "32", "--eps", "0.1", "--m", "3", "--trials", "150"]
    doc = {"class": {"kind": "projections", "n": 32},
           "dist": {"kind": "pne", "n": 32, "eps": 0.1, **member},
           "target": target_object, "m": 3, "trials": 150}
    from_flags = _learn_bytes(runner, tmp_path, "flags", [*flags, "--target", target],
                              threads=threads)
    assert from_flags == _learn_bytes(runner, tmp_path, "doc", [], doc, threads)


def test_a_flat_entry_with_a_target_is_flag_values(runner, tmp_path):
    entry = [{"n": 64, "target": "fixed:2", "m": 3, "trials": 50}]
    from_config = _learn_bytes(runner, tmp_path, "flat", [], entry)
    flags = ["--n", "64", "--target", "fixed:2", "--m", "3", "--trials", "50"]
    assert from_config == _learn_bytes(runner, tmp_path, "flags", flags)


def test_a_document_target_may_be_text(runner, tmp_path):
    as_text = _learn_bytes(runner, tmp_path, "text", [],
                           {**LEARN_DOCUMENT, "target": "random-pair", "trials": 60})
    assert as_text == _learn_bytes(runner, tmp_path, "object", [],
                                   {**LEARN_DOCUMENT, "trials": 60})


@pytest.mark.parametrize("document", [False, True])
def test_whole_float_int_key_runs_as_its_int(runner, tmp_path, document):
    base = {**LEARN_DOCUMENT, "trials": 20} if document else {"n": 16, "m": 2, "trials": 20}
    bodies = []
    for entry in (base, {**base, "m": 2.0, "trials": 20.0}):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(entry))
        out = tmp_path / "learn.csv"
        res = runner.invoke(main, ["--out", str(out), "learn", "--config", str(path)])
        assert res.exit_code == 0, res.output
        bodies.append(out.read_text())
    assert bodies[0] == bodies[1]


PROJECTIONS_4 = '{"kind": "projections", "n": 4}'
FINITE_2 = '{"kind": "finite", "support": ["00", "01"], "probs": [0.5, 0.5]}'
COVER_BODY = (
    "class_kind,num_concepts,level,size,members,certificate,vc_dim,dudley_log,dudley_value,"
    "seed,spec_hash\n"
    "projections,4,0.3,2,1|2,0.18,2,11.3594381,85771.1562,1592614637,fe5604899d8ed516\n"
)
# A spec whose inputs stand in for flags: its arguments, its config entry (None
# for none) and the body it writes.  Before these flags were refused, the spec
# with them added wrote this same body and left them unread.
REPLACING_SPECS = {
    "vc": (["vc", "--class-json", PROJECTIONS_4], None,
           "class_kind,num_concepts,universe,dimension,seed,spec_hash\n"
           "projections,4,default,2,1592614637,3a86cbf2af1cad42\n"),
    "cover": (["cover", "--class-json", PROJECTIONS_4, "--dist-json", PNE_4, "--level", "0.3"],
              None, COVER_BODY),
    "cover-config": (["cover"], {"class_json": json.loads(PROJECTIONS_4),
                                 "dist_json": json.loads(PNE_4), "level": 0.3}, COVER_BODY),
    "no-gap": (["no-gap", "--dist-json", FINITE_2, "--m-grid", "1,2", "--trials", "200"], None,
               "domain_size,dist,m,trials,violations,threshold,z_ge_rate,fail_rate,"
               "mean_missing_mass,seed,spec_hash\n"
               "2,custom,1,200,0,0.2,1,0.52,0.5,1592614637,e2e7dd06109b52a0\n"
               "2,custom,2,200,0,0.2,0.53,0.29,0.265,1592614637,e2e7dd06109b52a0\n"),
}


@pytest.mark.parametrize("spec, added, refused", [
    ("vc", ["--n", "7", "--universe", "full"], "--n cannot be given with --class-json"),
    ("vc", ["--universe", "full"], "--universe cannot be given with --class-json"),
    ("cover", ["--n", "64", "--eps", "0.3", "--i", "9"],
     "--n cannot be given with --class-json"),
    ("cover", ["--eps", "0.3"], "--eps cannot be given with --dist-json"),
    ("cover", ["--i", "9"], "--i cannot be given with --dist-json"),
    ("cover-config", {"n": 64}, "cover config key 'n' cannot be given with --class-json"),
    ("cover-config", {"eps": 0.3}, "cover config key 'eps' cannot be given with --dist-json"),
    ("no-gap", ["--domain-size", "9", "--dist", "geometric"],
     "--domain-size cannot be given with --dist-json"),
    ("no-gap", ["--dist", "geometric"], "--dist cannot be given with --dist-json"),
])
def test_an_input_refuses_the_flags_it_replaces(runner, tmp_path, spec, added, refused):
    args, entry, body = REPLACING_SPECS[spec]
    out = tmp_path / "x.csv"

    def invoke(extra):
        if entry is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({**entry, **extra}))
            extra = ["--config", str(path)]
        return runner.invoke(main, ["--out", str(out), *args, *extra])

    res = invoke(added)
    assert res.exit_code == 2, res.output
    assert f"spec error: {refused}, which replaces it\n" in res.output
    assert not out.exists()
    res = invoke({} if entry is not None else [])
    assert res.exit_code == 0, res.output
    assert out.read_text() == body


@pytest.mark.parametrize("cmd", [cmd for cmd in cli.COMMANDS if cmd.replaces],
                         ids=lambda cmd: cmd.name)
def test_every_name_in_a_replaces_column_is_read(cmd):
    # An input is a flag of the command or, for learn, a key of a document that
    # config_from_json_dict reads (it refuses a key it leaves unread); what an
    # input replaces is a flag.  So a typo in the table fails here.
    flags = {option.name for option in cmd.options}
    document = {**LEARN_DOCUMENT, "learner": "erm", "eps_acc": 0.1, "trials": 5}
    mc_harness.config_from_json_dict(document)
    inputs = flags | (document.keys() if cmd.name == "learn" else set())
    for key, replaced in cmd.replaces.items():
        assert key in inputs, f"{cmd.name} reads no input {key!r}"
        assert replaced <= flags, f"{cmd.name} has no flag {sorted(replaced - flags)}"


SEPARATION_SMALL = ["--trials", "300", "--delta", "0.25", "--m-max", "64"]


@pytest.mark.parametrize("command, flag, spaced, plain, rest", [
    ("separation", "--n-list", " 16 , 64,", "16,64", ["--learners", "erm", *SEPARATION_SMALL]),
    ("no-gap", "--m-grid", "1, 2, ,3", "1,2,3", ["--domain-size", "4", "--trials", "20"]),
    ("separation", "--learners", "erm, cover", "erm,cover", ["--n-list", "16", *SEPARATION_SMALL]),
], ids=["n-list", "m-grid", "learners"])
def test_a_comma_list_reads_each_item_stripped(runner, tmp_path, command, flag, spaced, plain,
                                               rest):
    # A blank item is skipped; the body, spec hash included, is the unspaced list's.
    bodies = []
    for name, value in (("spaced", spaced), ("plain", plain)):
        out = tmp_path / f"{name}.csv"
        res = runner.invoke(main, ["--seed", "3", "--out", str(out), command, flag, value, *rest])
        assert res.exit_code == 0, res.output
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1]


def test_largest_seed_is_accepted(runner, tmp_path):
    out = tmp_path / "vc.csv"
    res = runner.invoke(main, ["--seed", str(2**64 - 1), "--out", str(out), "vc", "--n", "3"])
    assert res.exit_code == 0, res.output
    assert read_csv(out)[0]["seed"] == str(2**64 - 1)


def test_a_bad_later_key_exits_2_before_any_entry_is_built(runner, tmp_path, monkeypatch):
    # The first entry's build would run a greedy cover scan in TrialConfig.
    def no_build(cfg):
        raise AssertionError("an entry was built")

    monkeypatch.setattr(mc_harness.TrialConfig, "__post_init__", no_build)
    cls, dist = wide_table(4)
    good = {"class": cls, "dist": dist, "target": {"kind": "fixed", "i": 2},
            "learner": "cover", "cover_level": 0.1, "m": 2, "eps_acc": 0.1, "trials": 20}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([good, {"n": 16, "m": 2, "bogus": 1}]))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), "learn", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert "spec error: learn config has unknown key 'bogus'" in res.output
    assert not out.exists()


def test_a_lower_bound_entry_builds_its_trial_config_once(runner, tmp_path, monkeypatch):
    built = []
    post_init = mc_harness.TrialConfig.__post_init__

    def counting(cfg):
        built.append(cfg.m)
        post_init(cfg)

    monkeypatch.setattr(mc_harness.TrialConfig, "__post_init__", counting)
    res = runner.invoke(main, ["--out", str(tmp_path / "lb.csv"), "lower-bound", "--n", "16",
                               "--eps", "0.2", "--learner", "erm", "--trials", "20"])
    assert res.exit_code == 0, res.output
    assert built == [mc_harness.lower_bound_m(16, 0.2)]


@pytest.mark.parametrize("command, points", [
    *((command, 64) for command in ("learn-erm", "learn-cover", "learn-memorizer", "cover", "vc")),
    ("learn-memorizer", 65),
])
def test_a_table_class_of_64_points_runs_and_the_memorizer_takes_any_width(
        runner, tmp_path, command, points):
    # Tables are uint64 words for ERM, covers and the VC dimension, which refuse
    # 65 points; the memorizer reads them as Python ints.
    cls, dist = wide_table(points)
    if command.startswith("learn"):
        learner = command.split("-")[1]
        level = {"cover_level": 0.3} if learner == "cover" else {}
        doc = {"class": cls, "dist": dist, "target": {"kind": "fixed", "i": 3},
               "learner": learner, "m": 3, "eps_acc": 0.1, "trials": 20, **level}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        args = ["learn", "--config", str(path)]
    elif command == "cover":
        args = ["cover", "--class-json", json.dumps(cls), "--dist-json", json.dumps(dist),
                "--level", "0.3"]
    else:
        args = ["vc", "--class-json", json.dumps(cls)]
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), *args])
    assert res.exit_code == 0, res.output
    assert out.exists()


def test_separation_starts_one_pool(runner, tmp_path, monkeypatch):
    from gaplab import mc_harness

    starts = []

    class CountingPool(mc_harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mc_harness, "ProcessPoolExecutor", CountingPool)
    out = tmp_path / "sep.csv"
    res = runner.invoke(
        main,
        ["--threads", "2", "--out", str(out), "separation", "--n-list", "16,64",
         "--learners", "erm,cover", "--trials", "300", "--delta", "0.25", "--m-max", "64"],
    )
    assert res.exit_code == 0, res.output
    assert len(read_csv(out)) == 4
    assert starts == [2]


SEPARATION_WARNINGS = [
    "warning: unresolved m values for n=16 cover: 2",
    "warning: unresolved m values for n=16 erm: 3;4",
    "warning: unresolved m values for n=16 bayes-posterior: 3",
    "warning: unresolved m values for n=256 cover: 2",
    "warning: unresolved m values for n=256 erm: 6",
    "warning: unresolved m values for n=256 bayes-posterior: 6;7",
    "warning: unresolved m values for n=4096 cover: 2",
]


# The process ids of the calls of cli's search made in this process.
_SEARCH_PIDS = []


def _recording_search(*args):
    _SEARCH_PIDS.append(os.getpid())
    return mc_harness.sample_complexity_search(*args)


@pytest.mark.parametrize("m_max, code, searches, last", [
    ("16", 0, 9, "warning: unresolved m values for n=4096 erm: 8;9\n"
              "warning: unresolved m values for n=4096 bayes-posterior: 9"),
    ("8", 3, 8, "runtime failure: no m <= 8 reached a failure CI upper bound <= 0.25"),
])
def test_separation_on_two_workers_writes_the_serial_rows_and_warnings(runner, tmp_path,
                                                                       monkeypatch, m_max,
                                                                       code, searches, last):
    # Two workers run the nine searches whole, none in this process; rows and
    # warnings keep cell order, and the n=4096 erm search fails at m_max 8, so
    # the last search is not run.
    monkeypatch.setattr(cli, "sample_complexity_search", _recording_search)
    runs = {}
    for threads in ("1", "2"):
        _SEARCH_PIDS.clear()
        out = tmp_path / f"t{threads}.csv"
        res = runner.invoke(main, ["--seed", "3", "--threads", threads, "--out", str(out),
                                   "separation", "--n-list", "16,256,4096", "--learners",
                                   "cover,erm,bayes-posterior", "--trials", "300",
                                   "--delta", "0.25", "--m-max", m_max])
        assert res.exit_code == code, res.output
        lines = [line for line in res.output.splitlines()
                 if not line.startswith(("wrote ", "manifest: "))]
        runs[threads] = lines, out.read_bytes() if out.exists() else None
        assert _SEARCH_PIDS == ([os.getpid()] * searches if threads == "1" else [])
    assert runs["1"] == runs["2"]
    assert runs["1"][0] == SEPARATION_WARNINGS + last.split("\n")
    assert (runs["1"][1] is None) == (code != 0)


@pytest.mark.parametrize("n_list, learners, whole", [
    ("16,256", "cover,erm,bayes-posterior", True),
    ("256", "cover,erm,bayes-posterior", True),
    ("256", "erm", False),
    ("256", "cover,erm", False),
    ("16,256", "cover,erm", False),
])
def test_separation_runs_a_search_per_worker_whole_else_fans_out_its_blocks(
        runner, tmp_path, monkeypatch, n_list, learners, whole):
    # When the searches, each counted as its n over the largest n, come to at
    # least 1.5 per worker, the parent sends each search to a worker and runs
    # no trial block itself; otherwise it sends blocks.
    submitted = []

    class RecordingPool(mc_harness.ProcessPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(fn.__name__)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(mc_harness, "ProcessPoolExecutor", RecordingPool)
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        res = runner.invoke(main, ["--seed", "3", "--threads", threads, "--out", str(out),
                                   "separation", "--n-list", n_list, "--learners", learners,
                                   "--trials", "300", "--delta", "0.25", "--m-max", "64"])
        assert res.exit_code == 0, res.output
        bodies.append(out.read_bytes())
    cells = len(n_list.split(",")) * len(learners.split(","))
    if whole:
        assert submitted == ["sample_complexity_search"] * cells
    else:
        assert submitted and set(submitted) == {"_run_chunk"}
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("cpus, threads", [(3, 4), (None, 2)])
def test_threads_above_the_cpu_count_exits_2_before_any_pool(runner, tmp_path, monkeypatch,
                                                             cpus, threads):
    # A fork-start process pool forks all its workers at its first task.
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was built")

    monkeypatch.setattr(mc_harness, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--threads", str(threads), "--out", str(out), "learn",
                               "--n", "16", "--trials", "400"])
    assert res.exit_code == 2
    assert "Invalid value for '--threads'" in res.output
    assert not out.exists()
    res = runner.invoke(main, ["--threads", str(threads - 1), "--out", str(out),
                               "vc", "--n", "4"])
    assert res.exit_code == 0, res.output


class TestBounds:
    def test_json_values(self, runner, tmp_path):
        out = tmp_path / "bounds.json"
        res = runner.invoke(
            main,
            ["--out", str(out), "bounds", "-N", "2", "--eps", "0.2",
             "--delta", "0.1", "--d", "3", "--k", "10"],
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(out.read_text())
        assert doc["benedek_itai_m"] == 719
        assert doc["sauer_bound"] == 176
        assert doc["sauer_estimate"] == pytest.approx(743.9088, abs=1e-3)

    def test_d_zero_dudley_is_one(self, runner, tmp_path):
        out = tmp_path / "bounds.json"
        res = runner.invoke(main, ["--out", str(out), "bounds", "--d", "0"])
        assert res.exit_code == 0
        assert json.loads(out.read_text())["dudley_value"] == 1.0

    def test_overflowing_estimate_is_infinity(self, runner, tmp_path):
        out = tmp_path / "bounds.json"
        res = runner.invoke(main, ["--out", str(out), "bounds", "--k", "14000", "--d", "1000"])
        assert res.exit_code == 0, res.output
        assert '"sauer_estimate": Infinity' in out.read_text()


class TestJsonFormat:
    def test_json_output(self, runner, tmp_path):
        out = tmp_path / "vc.json"
        res = runner.invoke(main, ["--format", "json", "--out", str(out), "vc", "--n", "4"])
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][0]["dimension"] == 2


# Small flags for every command that writes a table.
TABLE_ARGS = {
    "cover": ["--n", "64", "--eps", "0.05", "--i", "3"],
    "vc": ["--n", "4"],
    "learn": ["--n", "16", "--m", "2", "--trials", "20"],
    "separation": ["--n-list", "16", "--eps-acc", "0.5", "--delta", "0.5",
                   "--learners", "erm", "--trials", "20", "--m-max", "4"],
    "lower-bound": ["--n", "16", "--learner", "erm", "--trials", "20"],
    "ks-stats": ["--n", "16", "--m", "2", "--trials", "20"],
    "no-gap": ["--domain-size", "4", "--m-grid", "1,2", "--trials", "20"],
}


@pytest.mark.parametrize("command", [cmd.name for cmd in cli.COMMANDS
                                     if cmd.write is cli._write_table])
def test_json_rows_have_the_csv_columns(runner, tmp_path, command):
    csv_out, json_out = tmp_path / "x.csv", tmp_path / "x.json"
    for fmt, out in (("csv", csv_out), ("json", json_out)):
        res = runner.invoke(main, ["--format", fmt, "--out", str(out), command,
                                   *TABLE_ARGS[command]])
        assert res.exit_code == 0, res.output
    with open(csv_out, newline="") as fh:
        header = next(csv.reader(fh))
    assert header[-2:] == ["seed", "spec_hash"]
    rows = json.loads(json_out.read_text())["rows"]
    assert rows and all(sorted(row) == sorted(header) for row in rows)


# Bodies of 20-trial random-pair cover documents whose cover holds every
# concept (cover_level below d_off = 2 eps - 2 eps^2), recorded while the
# trial still found each member's column by a list scan.
EVERY_CONCEPT_COVER = {
    1024: "6dbaa7f25b440b255640161faea1b73451309feb19bcdd1990185582a38fd5db",
    4096: "78e75bb0c7b61e9b34f4c6236d764e38df21897ffa7a46b3071fdb5c86240f5e",
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("n", sorted(EVERY_CONCEPT_COVER))
def test_cover_of_every_concept_keeps_its_body(runner, tmp_path, n, threads):
    doc = {"class": {"kind": "projections", "n": n}, "dist": {"kind": "pne", "n": n, "eps": 0.1},
           "target": {"kind": "random-pair"}, "learner": "cover", "m": 4, "eps_acc": 0.0625,
           "trials": 20, "cover_level": 0.01}
    config, out = tmp_path / "cover.json", tmp_path / "cover.csv"
    config.write_text(json.dumps(doc))
    res = runner.invoke(main, ["--seed", "4", "--threads", threads, "--out", str(out),
                               "learn", "--config", str(config)])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EVERY_CONCEPT_COVER[n]
