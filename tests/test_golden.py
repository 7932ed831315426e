"""Golden result bodies: one small spec per command.

Each digest is the SHA-256 of the file a command writes for its spec and
seed: the CSV body, or for `bounds` its JSON report.  A change that alters one of them changes a random stream or a
formula, not just the speed, so it must not pass as a refactor.  Every spec
is checked serially and at two workers, with enough trials that the two
worker case runs through the process pool.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from gaplab.cli import main

# Table-class trials, run as `learn` trial-config documents: the support is
# listed in another order than the class domain.
TABLE_CLASS = {"kind": "table", "domain": ["00", "01", "10", "11"],
               "tables": ["0000", "0110", "1011", "1111", "0101"]}
FINITE_DIST = {"kind": "finite", "support": ["11", "00", "10"], "probs": [0.5, 0.25, 0.25]}

# The document a spec's `learn --config` reads, written to a file per test.
DOCUMENTS = {
    "learn-table-memorizer": {
        "class": TABLE_CLASS, "dist": FINITE_DIST, "target": {"kind": "random-concept"},
        "learner": "memorizer", "m": 2, "eps_acc": 0.2, "trials": 300,
        "memorizer_default": 1,
    },
    "learn-table-erm": {
        "class": TABLE_CLASS, "dist": FINITE_DIST, "target": {"kind": "fixed", "i": 3},
        "learner": "erm", "m": 1, "eps_acc": 0.2, "trials": 300,
    },
    "learn-table-cover": {
        "class": TABLE_CLASS, "dist": FINITE_DIST, "target": {"kind": "random-concept"},
        "learner": "cover", "cover_level": 0.3, "m": 2, "eps_acc": 0.2, "trials": 300,
    },
}

GOLDEN = {
    "learn": (
        ["--seed", "101", "learn", "--n", "64", "--eps", "0.1", "--learner", "erm",
         "--m", "6", "--trials", "300"],
        "c018c4f6a06304eb823821e156d6a3f08ae05d53eaeb267868be13858ac83978",
    ),
    "learn-table-memorizer": (
        ["--seed", "109", "learn"],
        "f7890137ec1727213015073efcb52d07d95aa278c8f4cd3a7c8620a1a48fbfea",
    ),
    "learn-table-erm": (
        ["--seed", "109", "learn"],
        "4c43b2a7fcf262488a1977efaed3b00b389095499e07e21e5f592497af1e169c",
    ),
    "learn-table-cover": (
        ["--seed", "110", "learn"],
        "a53b12b01afa7daf4a6a925acb62bedc1c1007164817bbf224e4fbef3c3bce25",
    ),
    "separation": (
        ["--seed", "102", "separation", "--n-list", "16,64",
         "--learners", "erm,cover,bayes-posterior", "--trials", "300",
         "--delta", "0.25", "--m-max", "64"],
        "ae4b896f1d4b9f4aac76fce0d4411c76d05d5b1d9ca3d277ecb73db3a724b735",
    ),
    "lower-bound": (
        ["--seed", "103", "lower-bound", "--n", "4096", "--eps", "0.2",
         "--learner", "bayes-posterior", "--trials", "300"],
        "f0361f7c3ea6e13ab14ae722629a9ad11e56f83126f0818afa92e099925f3d79",
    ),
    "ks-stats": (
        ["--seed", "104", "ks-stats", "--n", "4096", "--eps", "0.2", "--trials", "300"],
        "b51d956a93c7c4d8f09fb360bead47aaa5b44314a5b103a070884a0d868b16a3",
    ),
    "no-gap": (
        ["--seed", "105", "no-gap", "--domain-size", "6", "--dist", "geometric",
         "--m-grid", "1,4,8", "--trials", "300"],
        "b8dd1f43e789dac4f81cb77b70ec4619b629eff341ddbc7f24a81bdefb9bedec",
    ),
    "cover": (
        ["--seed", "106", "cover", "--n", "64", "--eps", "0.05", "--i", "7",
         "--level", "0.1"],
        "26628ff3b81f4b73b662c548d92a6e0a0bd22bef8f2c710d289569bdf33434c3",
    ),
    "cover-table": (
        ["--seed", "111", "cover", "--class-json", json.dumps(TABLE_CLASS),
         "--dist-json", json.dumps(FINITE_DIST), "--level", "0.3"],
        "08852e63ca9a65881bf02f69d0c5b229b1ac3f78092f3f69eea681ecf715bdba",
    ),
    "vc": (
        ["--seed", "107", "vc", "--n", "6", "--universe", "full"],
        "5f8a140119bf2a5a54e68f6e8ed22f493812c91a0c4bcdc383708f0be171af74",
    ),
    "bounds": (
        ["--seed", "108", "bounds", "-N", "3", "--eps", "0.2", "--delta", "0.1",
         "--d", "3", "--k", "12"],
        "f4e675324eec94ec8ab88d0ca763feb58cdbfbada5d10a1b3998c3f782fd8daa",
    ),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_body(tmp_path, command, threads):
    args, want = GOLDEN[command]
    if command in DOCUMENTS:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(DOCUMENTS[command]))
        args = [*args, "--config", str(config)]
    out = tmp_path / f"{command}.out"
    res = CliRunner().invoke(main, ["--threads", threads, "--out", str(out), *args])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
