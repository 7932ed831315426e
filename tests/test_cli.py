import csv
import hashlib
import json
import os
import platform
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy
from click.testing import CliRunner

from gaplab import cli, mc_harness
from gaplab.cli import main


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

    def test_invalid_spec_exits_2(self, runner, tmp_path):
        res = runner.invoke(
            main, ["--out", str(tmp_path / "x.csv"), "cover", "--n", "1", "--eps", "0.05"]
        )
        assert res.exit_code == 2

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

    def test_malformed_class_json_exits_2(self, runner, tmp_path):
        res = runner.invoke(
            main, ["--out", str(tmp_path / "x.csv"), "cover", "--class-json", "{",
                   "--dist-json", "{}", "--level", "0.3"]
        )
        assert res.exit_code == 2
        assert "--class-json" in res.output

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

    @pytest.mark.parametrize("level", ["0", "1.5", "-0.1"])
    @pytest.mark.parametrize("explicit", [False, True])
    def test_level_out_of_range_exits_2_before_any_cover(
            self, runner, tmp_path, monkeypatch, level, explicit):
        monkeypatch.setattr("gaplab.cli.build_cover", _no_scan)
        spec = (["--class-json", json.dumps({"kind": "projections", "n": 8}),
                 "--dist-json", json.dumps({"kind": "pne", "n": 8, "eps": 0.1, "i": 2})]
                if explicit else ["--n", "64"])
        out = tmp_path / "x.csv"
        res = runner.invoke(main, ["--out", str(out), "cover", *spec, "--level", level])
        assert res.exit_code == 2, res.output
        assert f"--level must lie in (0, 1], got {float(level)}" in res.output
        assert not out.exists()

    def test_nan_marginal_exits_2_before_any_cover(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr("gaplab.cli.build_cover", _no_scan)
        out = tmp_path / "x.csv"
        res = runner.invoke(
            main, ["--out", str(out), "cover", "--level", "0.1",
                   "--class-json", json.dumps({"kind": "projections", "n": 2}),
                   "--dist-json", '{"kind": "product", "marginals": [NaN, 0.5]}']
        )
        assert res.exit_code == 2, res.output
        assert "spec error: cover key 'dist_json.marginals'" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("dist", [
        {"kind": "pne", "n": 16, "eps": 0.05, "i": 3},
        {"kind": "product", "marginals": [0.5] * 16},
    ])
    def test_class_and_law_of_different_n_exit_2(self, runner, tmp_path, dist):
        out = tmp_path / "x.csv"
        res = runner.invoke(
            main, ["--out", str(out), "cover", "--level", "0.1",
                   "--class-json", json.dumps({"kind": "projections", "n": 8}),
                   "--dist-json", json.dumps(dist)]
        )
        assert res.exit_code == 2, res.output
        assert "the class has n=8, the distribution has n=16" in res.output
        assert not out.exists()


def _no_scan(*args, **kwargs):
    raise AssertionError("a cover was built")


@pytest.mark.parametrize("dist", [
    {"kind": "pne", "n": 16, "eps": 0.05, "i": 3},
    {"kind": "product", "marginals": [0.5] * 16},
])
def test_learn_and_cover_reject_different_n_with_one_message(runner, tmp_path, dist):
    cls = {"kind": "projections", "n": 8}
    doc = {"class": cls, "dist": dist, "target": {"kind": "fixed", "i": 3},
           "learner": "erm", "m": 2, "eps_acc": 0.1, "trials": 10}
    path = tmp_path / "learn.json"
    path.write_text(json.dumps(doc))
    runs = {
        "learn": ["learn", "--config", str(path)],
        "cover": ["cover", "--level", "0.1", "--class-json", json.dumps(cls),
                  "--dist-json", json.dumps(dist)],
    }
    errors = {}
    for command, args in runs.items():
        res = runner.invoke(main, ["--out", str(tmp_path / f"{command}.csv"), *args])
        assert res.exit_code == 2, res.output
        errors[command] = [line for line in res.output.splitlines()
                           if line.startswith("spec error:")]
    assert errors["learn"] == errors["cover"] == [
        "spec error: the class has n=8, the distribution has n=16"]


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
        assert manifest["scipy_version"] == scipy.__version__

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

    def test_bad_spec_exits_2(self, runner, tmp_path):
        res = runner.invoke(
            main, ["--out", str(tmp_path / "x.csv"), "learn", "--n", "16", "--eps", "0.9"]
        )
        assert res.exit_code == 2


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

    def test_empty_learners_exits_2(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["--out", str(tmp_path / "x.csv"), "separation", "--learners", ""],
        )
        assert res.exit_code == 2

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
    "args",
    [
        ["--trials", "0", "no-gap", "--domain-size", "4", "--m-grid", "1"],
        ["--trials", "-3", "learn", "--n", "16"],
        ["no-gap", "--domain-size", "4", "--m-grid", "1", "--trials", "0"],
        ["ks-stats", "--n", "256", "--trials", "0"],
        ["separation", "--n-list", "16", "--trials", "0"],
    ],
)
def test_trials_below_one_exits_2(runner, tmp_path, args):
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out)] + args)
    assert res.exit_code == 2
    assert "--trials" in res.output
    assert not out.exists()


def test_trials_zero_in_config_exits_2(runner, tmp_path):
    path = tmp_path / "ng.json"
    path.write_text(json.dumps({"domain_size": 4, "m_grid": "1", "trials": 0}))
    res = runner.invoke(main, ["--out", str(tmp_path / "x.csv"), "no-gap",
                               "--config", str(path)])
    assert res.exit_code == 2
    assert "trials" in res.output


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


@pytest.mark.parametrize("command", ["separation", "bounds"])
def test_extra_config_entries_exit_2(runner, tmp_path, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([{"n_list": "16"}, {"n_list": "32"}, {"eps": 0.1}]))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), command, "--config", str(path)])
    assert res.exit_code == 2
    assert f"{command} takes one config entry, the config has 3" in res.output
    assert not out.exists()


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


@pytest.mark.parametrize("out, named", [
    ("missing/x.csv", "no directory"), (".", "is a directory"),
])
def test_unwritable_out_exits_2_before_any_trial(runner, tmp_path, monkeypatch, out, named):
    monkeypatch.setattr(mc_harness, "_map_trials", _fail_unexpectedly)
    res = runner.invoke(main, ["--out", str(tmp_path / out), "lower-bound", "--n", "4096",
                               "--eps", "0.2", "--trials", "3000"])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("spec error: --out ") and named in res.stderr
    assert not list(tmp_path.rglob("*.manifest.json"))


def test_lower_bound_outside_the_regime_warns_in_one_line(runner, tmp_path):
    res = runner.invoke(main, ["--out", str(tmp_path / "lb.csv"), "lower-bound", "--n", "4",
                               "--eps", "0.2", "--trials", "30"])
    assert res.exit_code == 0, res.output
    assert res.stderr.splitlines() == [
        "warning: n=4 is below 600/eps^3 = 75000; outside the regime the bound assumes"]


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


@pytest.mark.parametrize("command", ["learn", "lower-bound", "ks-stats", "cover", "vc"])
def test_bad_config_value_is_a_spec_error(runner, tmp_path, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": "abc"}))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), command, "--config", str(path)])
    assert res.exit_code == 2
    assert f"spec error: {command} config key 'n': 'abc' is not a valid integer" in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "command, entry, key",
    [
        ("no-gap", {"domain_size": 4, "m_grid": "1", "dist_kind": "geometric"}, "dist_kind"),
        ("cover", {"n": 64, "i_special": 3}, "i_special"),
        ("bounds", {"k_size": 4}, "k_size"),
        ("learn", {"n": 16, "trials_opt": 5}, "trials_opt"),
    ],
)
def test_unknown_config_key_exits_2(runner, tmp_path, command, entry, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(entry))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), command, "--config", str(path)])
    assert res.exit_code == 2
    assert f"{command} config has unknown key {key!r}" in res.output
    assert not out.exists()


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


def test_config_value_uses_the_flag_type(runner, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"domain_size": 4, "m_grid": "1", "trials": 50,
                                "dist": "poisson"}))
    res = runner.invoke(main, ["--out", str(tmp_path / "x.csv"), "no-gap",
                               "--config", str(path)])
    assert res.exit_code == 2
    assert "no-gap config key 'dist'" in res.output


@pytest.mark.parametrize("key", ["class", "dist", "target"])
def test_learn_document_without_key_exits_2(runner, tmp_path, key):
    doc = {
        "class": {"kind": "projections", "n": 16},
        "dist": {"kind": "pne", "n": 16, "eps": 0.1},
        "target": {"kind": "random-pair"},
        "m": 2,
    }
    del doc[key]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["--out", str(tmp_path / "x.csv"), "learn",
                               "--config", str(path)])
    assert res.exit_code == 2
    assert f"trial config has no {key!r} key" in res.output


LEARN_DOCUMENT = {
    "class": {"kind": "projections", "n": 16},
    "dist": {"kind": "pne", "n": 16, "eps": 0.1},
    "target": {"kind": "random-pair"},
    "m": 2,
}


def test_global_trials_overrides_a_learn_document(runner, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([{**LEARN_DOCUMENT, "trials": 60},
                                {"n": 16, "m": 2, "trials": 60}]))
    out = tmp_path / "learn.csv"
    res = runner.invoke(main, ["--trials", "25", "--out", str(out), "learn",
                               "--config", str(path)])
    assert res.exit_code == 0, res.output
    assert [r["trials"] for r in read_csv(out)] == ["25", "25"]


def test_bad_fixed_target_exits_2(runner, tmp_path):
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), "learn", "--n", "16",
                               "--target", "fixed:x"])
    assert res.exit_code == 2
    assert "spec error: --target 'fixed:x': 'x' is not a valid integer" in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, named",
    [("m", "abc", "'m'"), ("eps_acc", "high", "'eps_acc'"), ("gamma", [1], "'gamma'"),
     ("seed", {"master": "x"}, "'seed.master'")],
)
def test_bad_learn_document_value_exits_2(runner, tmp_path, key, value, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**LEARN_DOCUMENT, key: value}))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), "learn", "--config", str(path)])
    assert res.exit_code == 2
    assert f"spec error: trial config key {named}" in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "command, entry, key",
    [("learn", {"n": 16, "m": 2.7}, "m"), ("learn", {"n": 16, "m": True}, "m"),
     ("learn", {"n": 16, "trials": 40.9}, "trials"), ("ks-stats", {"n": 64, "m": 2.5}, "m")],
)
def test_flat_int_key_refuses_what_int_would_truncate(runner, tmp_path, command, entry, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(entry))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), command, "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert (f"spec error: {command} config key {key!r}: {entry[key]!r} is not a valid integer"
            in res.output)
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("m", 2.7), ("m", True), ("trials", 40.9)])
def test_learn_document_int_key_refuses_what_int_would_truncate(runner, tmp_path, key,
                                                                 value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**LEARN_DOCUMENT, key: value}))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), "learn", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert f"spec error: trial config key {key!r}: {value!r} is not a valid int" in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "entry, named",
    [({"n": 16, "m": 2, "trials": 5, "eps_acc": True}, "learn config key 'eps_acc'"),
     ({**LEARN_DOCUMENT, "eps_acc": True}, "trial config key 'eps_acc'"),
     ({**LEARN_DOCUMENT, "dist": {**LEARN_DOCUMENT["dist"], "eps": True}},
      "trial config key 'dist.eps'")],
)
def test_float_key_refuses_a_bool(runner, tmp_path, entry, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(entry))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), "learn", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert f"spec error: {named}: True is not a valid float" in res.output
    assert not out.exists()


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


@pytest.mark.parametrize("key, learner", [("cover_level", "cover"),
                                          ("learner_eps", "bayes-posterior")])
def test_learn_document_number_key_must_be_a_number(runner, tmp_path, key, learner):
    doc = {**LEARN_DOCUMENT, "learner": learner, key: "abc", "trials": 20}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), "learn", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert f"spec error: trial config key {key!r}: 'abc' is not a number" in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, learner, bounds",
    [("learner_eps", v, "bayes-posterior", "(0, 1/2)") for v in (-1, 0, 0.5, 0.7, 5)]
    + [("cover_level", v, "cover", "(0, 1]") for v in (0, -0.0, 1.5)],
)
def test_learn_document_number_key_out_of_range_exits_2_before_any_trial(
        runner, tmp_path, monkeypatch, key, value, learner, bounds):
    monkeypatch.setattr("gaplab.mc_harness._map_trials", _no_trial)
    doc = {**LEARN_DOCUMENT, "learner": learner, key: value, "trials": 20}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), "learn", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert f"spec error: {key} must lie in {bounds}, got {value!r}" in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "part, field, value, named",
    [("dist", "n", "abc", "'dist.n'"), ("dist", "eps", "low", "'dist.eps'"),
     ("dist", "i", [3], "'dist.i'"), ("class", "n", "abc", "'class.n'")],
)
def test_bad_value_inside_a_learn_document_part_exits_2(runner, tmp_path, part, field,
                                                        value, named):
    doc = {**LEARN_DOCUMENT, part: {**LEARN_DOCUMENT[part], field: value}}
    if part == "dist" and field == "i":
        doc = {**doc, "target": {"kind": "fixed", "i": 1}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), "learn", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert f"spec error: trial config key {named}: {value!r} is not a valid" in res.output
    assert not out.exists()


def test_bad_value_in_a_json_option_names_the_option(runner, tmp_path):
    out = tmp_path / "x.csv"
    cases = [
        ("no-gap", "--dist-json",
         {"kind": "finite", "support": ["0", "1"], "probs": ["half", 0.5]}, "dist_json.probs"),
        ("no-gap", "--dist-json",
         {"kind": "finite", "support": [5, 1], "probs": [0.5, 0.5]}, "dist_json.support"),
        ("no-gap", "--dist-json", {"kind": "finite", "probs": [0.5, 0.5]}, "dist_json.support"),
        ("no-gap", "--dist-json",
         {"kind": "finite", "support": ["0", "1"], "probs": [float("nan"), 1]},
         "dist_json.probs"),
        ("no-gap", "--dist-json",
         {"kind": "finite", "support": ["0", "1"], "probs": [None, 1]}, "dist_json.probs"),
        ("vc", "--class-json", {"kind": "table", "tables": ["01"]}, "class_json.domain"),
        ("vc", "--class-json", {"kind": "table", "domain": ["0", "1"], "tables": ["012"]},
         "class_json.tables"),
    ]
    for command, option, value, named in cases:
        res = runner.invoke(main, ["--out", str(out), command, option, json.dumps(value)])
        assert res.exit_code == 2, res.output
        assert f"spec error: {command} key '{named}'" in res.output
        assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [("separation", "--n-list", "16,abc"), ("separation", "--n-list", "1.5"),
     ("no-gap", "--m-grid", "1,x"), ("no-gap", "--m-grid", "2,,1e3")],
)
def test_bad_comma_list_names_the_flag(runner, tmp_path, command, flag, value):
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), command, flag, value])
    assert res.exit_code == 2, res.output
    assert f"spec error: {flag} {value!r} is not a comma-separated list of integers" in res.output
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("no-gap", "--m-grid"), ("separation", "--n-list")])
def test_comma_list_without_integers_exits_2(runner, tmp_path, command, flag):
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), command, flag, ",", "--trials", "10"])
    assert res.exit_code == 2, res.output
    assert f"spec error: {flag} ',' lists no integers" in res.output
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("from_env", [False, True])
@pytest.mark.parametrize("args", [["cover", "--n", "8"], ["vc", "--n", "3"], ["bounds"]],
                         ids=["cover", "vc", "bounds"])
def test_seed_outside_u64_exits_2(runner, tmp_path, seed, from_env, args):
    out = tmp_path / "x.csv"
    flags = [] if from_env else ["--seed", seed]
    res = runner.invoke(main, [*flags, "--out", str(out), *args],
                        env={"GAPLAB_SEED": seed} if from_env else {})
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--seed'" in res.output
    assert not out.exists()


def test_largest_seed_is_accepted(runner, tmp_path):
    out = tmp_path / "vc.csv"
    res = runner.invoke(main, ["--seed", str(2**64 - 1), "--out", str(out), "vc", "--n", "3"])
    assert res.exit_code == 0, res.output
    assert read_csv(out)[0]["seed"] == str(2**64 - 1)


def test_negative_d_max_exits_2(runner, tmp_path):
    out = tmp_path / "vc.csv"
    res = runner.invoke(main, ["--out", str(out), "vc", "--n", "4", "--d-max", "-1"])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--d-max'" in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "law",
    [{"kind": "pne", "n": 4, "eps": 0.1}, {"kind": "pne", "n": 4, "eps": 0.1, "i": 2},
     {"kind": "product", "marginals": [0.5, 0.1]}],
)
def test_no_gap_rejects_a_law_without_finite_support(runner, tmp_path, law):
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), "no-gap", "--dist-json", json.dumps(law)])
    assert res.exit_code == 2, res.output
    assert "spec error: no-gap --dist-json needs a finite distribution" in res.output
    assert not out.exists()


PRODUCT_DIST = {"kind": "product", "marginals": [0.5, 0.1, 0.1, 0.1]}


def wide_table(points: int) -> tuple[dict, dict]:
    """A table class over `points` domain points (tables all zeros, all ones
    and a one at the last point) and the uniform law on its domain."""
    domain = [format(k, f"0{(points - 1).bit_length()}b") for k in range(points)]
    tables = ["0" * points, "1" * points, "0" * (points - 1) + "1"]
    return ({"kind": "table", "domain": domain, "tables": tables},
            {"kind": "finite", "support": domain, "probs": [1 / points] * points})


WIDE_TABLE_REFUSAL = "a table class of 65 domain points has tables wider than 64 bits"


def _no_trial(*args, **kwargs):
    raise AssertionError("a trial ran")


# A good first entry, a second entry that breaks a rule, and the rule.
LATER_BAD_ENTRY = {
    "learn": ({"n": 16, "m": 2, "trials": 20},
              {"class": {"kind": "projections", "n": 16},
               "dist": {"kind": "pne", "n": 16, "eps": 0.1, "i": 2},
               "target": {"kind": "fixed", "i": 2}, "learner": "memorizer", "m": 2,
               "eps_acc": 0.1, "trials": 20},
              "the memorizer's exact error needs an enumerable domain"),
    "lower-bound": ({"n": 16, "eps": 0.2, "learner": "erm", "trials": 20},
                    {"n": 16, "eps": 0.3, "learner": "erm", "trials": 20},
                    "eps must lie in (0, 1/4), got 0.3"),
    "ks-stats": ({"n": 16, "eps": 0.2, "m": 2, "trials": 20},
                 {"n": 16, "eps": 0.6, "m": 2, "trials": 20},
                 "eps must lie in (0, 1/2), got 0.6"),
    "no-gap": ({"domain_size": 4, "m_grid": "1", "trials": 20},
               {"dist_json": {"kind": "pne", "n": 4, "eps": 0.1}, "m_grid": "1", "trials": 20},
               "no-gap --dist-json needs a finite distribution"),
    "cover": ({"n": 64, "eps": 0.05},
              {"class_json": {"kind": "projections", "n": 8}, "level": 0.3},
              "give both --class-json and --dist-json"),
    "vc": ({"n": 4}, {"n": 21}, "full hypercube enumeration capped at n = 20"),
}


# Rules of cover and vc checked on types and sizes in the build step: a
# command, a good first entry, a second entry that breaks a rule, and the rule.
LATER_BUILD_RULE = {
    "cover-table-under-product": (
        "cover",
        {"class_json": wide_table(3)[0], "dist_json": wide_table(3)[1], "level": 0.3},
        {"class_json": wide_table(4)[0], "dist_json": PRODUCT_DIST, "level": 0.3},
        "no exact oracle for TableClass under ProductDistribution"),
    "vc-65-point-table": ("vc", {"n": 4}, {"class_json": wide_table(65)[0]},
                          WIDE_TABLE_REFUSAL),
    "cover-empty-table-class": (
        "cover",
        {"class_json": wide_table(2)[0], "dist_json": wide_table(2)[1], "level": 0.3},
        {"class_json": {"kind": "table", "domain": ["0", "1"], "tables": []},
         "dist_json": wide_table(2)[1], "level": 0.3},
        "cannot cover an empty class"),
    "vc-default-universe-cells": (
        "vc", {"n": 4}, {"n": 3500000, "universe": "default"},
        "universe x class too large for the exhaustive search (85 x 3500000)"),
}


@pytest.mark.parametrize("command", sorted(LATER_BAD_ENTRY))
def test_a_bad_later_entry_exits_2_before_the_first_entry_runs(runner, tmp_path, monkeypatch,
                                                               command):
    _refuses_before_any_run(runner, tmp_path, monkeypatch, command, *LATER_BAD_ENTRY[command])


@pytest.mark.parametrize("case", sorted(LATER_BUILD_RULE))
def test_a_cover_or_vc_rule_exits_2_before_the_first_entry_runs(runner, tmp_path, monkeypatch,
                                                                case):
    _refuses_before_any_run(runner, tmp_path, monkeypatch, *LATER_BUILD_RULE[case])


def _refuses_before_any_run(runner, tmp_path, monkeypatch, command, good, bad, named):
    for name in ("gaplab.mc_harness._map_trials", "gaplab.cli.build_cover",
                 "gaplab.cli.vc_dimension_bruteforce"):
        monkeypatch.setattr(name, _no_trial)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([good, bad]))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), command, "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert f"spec error: {named}" in res.output
    assert not out.exists() and not out.with_suffix(".manifest.json").exists()


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


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"class": {"kind": "projections", "n": 16},
          "dist": {"kind": "pne", "n": 16, "eps": 0.1, "i": 2},
          "target": {"kind": "fixed", "i": 2}, "learner": "memorizer"},
         "the memorizer's exact error needs an enumerable domain"),
        ({"class": {"kind": "projections", "n": 4}, "dist": PRODUCT_DIST,
          "target": {"kind": "fixed", "i": 1}, "learner": "bayes-posterior",
          "learner_eps": 0.1},
         "the posterior rule's exact error needs a pne distribution"),
        ({"class": {"kind": "projections", "n": 4}, "dist": PRODUCT_DIST,
          "target": {"kind": "fixed", "i": 1}, "learner": "cover"},
         "cover learning needs cover_level unless the distribution is pne"),
        ({"class": {"kind": "projections", "n": 16},
          "dist": {"kind": "pne", "n": 16, "eps": 0.2, "i": 1},
          "target": {"kind": "fixed", "i": 3}, "learner": "bayes-posterior"},
         "the posterior rule's exact error needs target fixed:1"),
        ({"class": {"kind": "projections", "n": 16},
          "dist": {"kind": "pne", "n": 16, "eps": 0.2, "i": 4},
          "target": {"kind": "random-concept"}, "learner": "bayes-posterior"},
         "the posterior rule's exact error needs target fixed:4"),
        ({"class": wide_table(65)[0], "dist": wide_table(65)[1],
          "target": {"kind": "fixed", "i": 3}, "learner": "erm"}, WIDE_TABLE_REFUSAL),
        ({"class": wide_table(65)[0], "dist": wide_table(65)[1],
          "target": {"kind": "fixed", "i": 3}, "learner": "cover", "cover_level": 0.3},
         WIDE_TABLE_REFUSAL),
    ],
)
def test_learn_document_without_an_exact_oracle_exits_2_before_any_trial(
        runner, tmp_path, monkeypatch, doc, named):
    monkeypatch.setattr("gaplab.mc_harness._map_trials", _no_trial)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**doc, "m": 2, "eps_acc": 0.1, "trials": 50}))
    out = tmp_path / "x.csv"
    res = runner.invoke(main, ["--out", str(out), "learn", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert f"spec error: {named}" in res.output
    assert not out.exists()


@pytest.mark.parametrize("points", [64, 65])
@pytest.mark.parametrize("command", ["learn-erm", "learn-cover", "learn-memorizer", "cover",
                                     "vc"])
def test_table_class_wider_than_64_points_exits_2(runner, tmp_path, command, points):
    # Tables are uint64 words for ERM, covers and the VC dimension; the
    # memorizer reads them as Python ints and takes any width.
    cls, dist = wide_table(points)
    if command.startswith("learn"):
        learner = command.split("-")[1]
        doc = {"class": cls, "dist": dist, "target": {"kind": "fixed", "i": 3},
               "learner": learner, "m": 3, "eps_acc": 0.1, "trials": 20, "cover_level": 0.3}
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
    if points == 64 or command == "learn-memorizer":
        assert res.exit_code == 0, res.output
        assert out.exists()
    else:
        assert res.exit_code == 2, res.output
        assert f"spec error: {WIDE_TABLE_REFUSAL}" in res.output
        assert not out.exists()


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
    "warning: unresolved m values for n=256 cover: 2",
    "warning: unresolved m values for n=256 erm: 6",
    "warning: unresolved m values for n=4096 cover: 2",
]


@pytest.mark.parametrize("m_max, code, last", [
    ("16", 0, "warning: unresolved m values for n=4096 erm: 8;9"),
    ("8", 3, "runtime failure: no m <= 8 reached a failure CI upper bound <= 0.25"),
])
def test_separation_on_two_workers_writes_the_serial_rows_and_warnings(runner, tmp_path,
                                                                       monkeypatch, m_max,
                                                                       code, last):
    # Two workers run every search at once, each from a parent thread; rows
    # and warnings keep cell order, and the n=4096 erm search, the last cell,
    # fails at m_max 8.
    search = cli.sample_complexity_search
    callers = []

    def recording_search(*args):
        callers.append(threading.get_ident())
        return search(*args)

    monkeypatch.setattr(cli, "sample_complexity_search", recording_search)
    runs = {}
    for threads in ("1", "2"):
        callers.clear()
        out = tmp_path / f"t{threads}.csv"
        res = runner.invoke(main, ["--seed", "3", "--threads", threads, "--out", str(out),
                                   "separation", "--n-list", "16,256,4096", "--learners",
                                   "cover,erm", "--trials", "300", "--delta", "0.25",
                                   "--m-max", m_max])
        assert res.exit_code == code, res.output
        lines = [line for line in res.output.splitlines()
                 if not line.startswith(("wrote ", "manifest: "))]
        runs[threads] = lines, out.read_bytes() if out.exists() else None
        assert len(callers) == 6
        on_main = {ident == threading.get_ident() for ident in callers}
        assert on_main == ({True} if threads == "1" else {False})
    assert runs["1"] == runs["2"]
    assert runs["1"][0] == SEPARATION_WARNINGS + [last]
    assert (runs["1"][1] is None) == (code != 0)


def test_negative_threads_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["--threads", "-1", "--out", str(tmp_path / "x.csv"),
                               "vc", "--n", "4"])
    assert res.exit_code == 2
    assert "--threads" in res.output


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

    def test_range_violation_exits_2(self, runner, tmp_path):
        res = runner.invoke(
            main, ["--out", str(tmp_path / "b.json"), "bounds", "--eps", "2.0"]
        )
        assert res.exit_code == 2

    @pytest.mark.parametrize("k, d", [(20000, 10000), (100000000, 50000000),
                                      (9223372036854775807, 300)])
    def test_sum_past_the_digit_limit_exits_2_before_summing(self, runner, tmp_path, k, d):
        out = tmp_path / "b.json"
        res = runner.invoke(main, ["--out", str(out), "bounds", "--k", str(k), "--d", str(d)])
        assert res.exit_code == 2, res.output
        assert f"spec error: the Sauer sum for K={k}, d={d} may pass 4300 digits" in res.output
        assert not out.exists()


class TestJsonFormat:
    def test_json_output(self, runner, tmp_path):
        out = tmp_path / "vc.json"
        res = runner.invoke(main, ["--format", "json", "--out", str(out), "vc", "--n", "4"])
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][0]["dimension"] == 2


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
