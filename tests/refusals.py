"""The refusal corpus: specs that gaplab must refuse, and the message each gets.

Each row is one run of `gaplab` that must exit 2 before any work: its id, its
arguments, the config file it reads (None for none) and a fragment of the
message.  tests/test_refusals.py runs every row in a directory of its own and
checks the whole refusal contract:

- exit code 2;
- the last stderr line is `spec error: ...`, then the only line, or click's
  `Error: Invalid value for '<flag>': ...`, and it holds the fragment;
- nothing on stdout;
- no result file and no manifest;
- no trial, cover scan or VC search ran, and no process pool started.

A config that is a dict or a list is written as JSON to `cfg.json`, bytes as
they are, and `--config cfg.json` is added to the arguments.  A fragment that
ends in a newline must end the line.  `env`, if given, is the environment of
the run.

A new refusal is a new row here.  A test elsewhere that asserts exit 2 must be
named in STAYS, with what it checks beyond the contract.
"""

import json
from typing import NamedTuple

from conftest import at_least_two_cpus
from test_spec_fields import READER_DOCUMENTS, _with


class Refusal(NamedTuple):
    id: str
    argv: list[str]
    config: dict | list | bytes | None
    fragment: str
    env: dict | None = None


LEARN_DOCUMENT = {
    "class": {"kind": "projections", "n": 16},
    "dist": {"kind": "pne", "n": 16, "eps": 0.1},
    "target": {"kind": "random-pair"},
    "m": 2,
}
PNE_4 = '{"kind": "pne", "n": 4, "eps": 0.1, "i": 1}'
PRODUCT_DIST = {"kind": "product", "marginals": [0.5, 0.1, 0.1, 0.1]}
LEARNERS = "learners (erm, cover, bayes-posterior)"


def wide_table(points: int) -> tuple[dict, dict]:
    """A table class over `points` domain points (tables all zeros, all ones
    and a one at the last point) and the uniform law on its domain."""
    domain = [format(k, f"0{(points - 1).bit_length()}b") for k in range(points)]
    tables = ["0" * points, "1" * points, "0" * (points - 1) + "1"]
    return ({"kind": "table", "domain": domain, "tables": tables},
            {"kind": "finite", "support": domain, "probs": [1 / points] * points})


WIDE_TABLE_REFUSAL = "a table class of 65 domain points has tables wider than 64 bits"


def _document(**keys) -> dict:
    return {**LEARN_DOCUMENT, **keys}


def _objects(doc: dict) -> list[str]:
    """The keys of a document that hold objects."""
    return [key for key, value in doc.items() if isinstance(value, dict)]


GLOBAL_FLAGS = [
    Refusal("out-without-its-directory",
            ["--out", "missing/x.csv", "lower-bound", "--n", "4096", "--trials", "3000"], None,
            "spec error: --out 'missing/x.csv': no directory 'missing'\n"),
    Refusal("out-is-a-directory",
            ["--out", ".", "lower-bound", "--n", "4096", "--trials", "3000"], None,
            "spec error: --out '.' is a directory\n"),
    *(Refusal(f"seed-{seed}-{'env' if env else 'flag'}-{args[0]}",
              args if env else ["--seed", seed, *args], None,
              f"Invalid value for '--seed': --seed must lie in [0, 2^64 - 1], got {seed}",
              {"GAPLAB_SEED": seed} if env else None)
      for seed in ("-1", str(2**64)) for env in (False, True)
      for args in (["cover", "--n", "8"], ["vc", "--n", "3"], ["bounds"])),
    Refusal("threads-negative", ["--threads", "-1", "vc", "--n", "4"], None,
            "Invalid value for '--threads'"),
    Refusal("threads-above-the-cpus",
            ["--threads", str(at_least_two_cpus() + 1), "learn", "--n", "16", "--trials", "400"],
            None, "Invalid value for '--threads'"),
    *(Refusal(f"trials-{value}-{where}-{args[0]}", [*flag, *args, *tail], None,
              f"Invalid value for '--trials': --trials must lie in [1, 2^63 - 1], got {value}")
      for value, where, flag, args, tail in (
          ("0", "global", ["--trials", "0"], ["no-gap", "--domain-size", "4", "--m-grid", "1"],
           []),
          ("-3", "global", ["--trials", "-3"], ["learn", "--n", "16"], []),
          ("0", "flag", [], ["no-gap", "--domain-size", "4", "--m-grid", "1"],
           ["--trials", "0"]),
          ("0", "flag", [], ["ks-stats", "--n", "256"], ["--trials", "0"]),
          ("0", "flag", [], ["separation", "--n-list", "16"], ["--trials", "0"]))),
]

CONFIG_FILES = [
    Refusal("config-lists-no-entries", ["learn"], [],
            "spec error: config lists no entries: cfg.json\n"),
    Refusal("config-is-a-directory", ["learn", "--config", "."], None,
            "Invalid value for '--config': File '.' is a directory"),
    Refusal("config-not-utf8", ["learn"], b'\xff{"n": 16}',
            "spec error: config is not UTF-8 text: cfg.json\n"),
    *(Refusal(f"{command}-takes-one-entry", [command],
              [{"n_list": "16"}, {"n_list": "32"}, {"eps": 0.1}],
              f"spec error: {command} takes one config entry, the config has 3\n")
      for command in ("separation", "bounds")),
    Refusal("no-gap-config-trials-0", ["no-gap"],
            {"domain_size": 4, "m_grid": "1", "trials": 0},
            "spec error: trials must lie in [1, 2^63 - 1], got 0\n"),
    *(Refusal(f"{command}-config-n-not-an-integer", [command], {"n": "abc"},
              f"spec error: {command} config key 'n': 'abc' is not a valid integer\n")
      for command in ("learn", "lower-bound", "ks-stats", "cover", "vc")),
    *(Refusal(f"{command}-config-unknown-key", [command], entry,
              f"spec error: {command} config has unknown key {key!r}")
      for command, entry, key in (
          ("no-gap", {"domain_size": 4, "m_grid": "1", "dist_kind": "geometric"}, "dist_kind"),
          ("cover", {"n": 64, "i_special": 3}, "i_special"),
          ("bounds", {"k_size": 4}, "k_size"),
          ("learn", {"n": 16, "trials_opt": 5}, "trials_opt"))),
    Refusal("no-gap-config-dist-by-the-flag-type", ["no-gap"],
            {"domain_size": 4, "m_grid": "1", "trials": 50, "dist": "poisson"},
            "spec error: no-gap config key 'dist': 'poisson' is not one of"),
    *(Refusal(f"{command}-config-{key}-{value}", [command], entry,
              f"spec error: {command} config key {key!r}: {value!r} is not a valid integer\n")
      for command, entry, key, value in (
          ("learn", {"n": 16, "m": 2.7}, "m", 2.7), ("learn", {"n": 16, "m": True}, "m", True),
          ("learn", {"n": 16, "trials": 40.9}, "trials", 40.9),
          ("ks-stats", {"n": 64, "m": 2.5}, "m", 2.5))),
    Refusal("learn-config-eps-acc-true", ["learn"],
            {"n": 16, "m": 2, "trials": 5, "eps_acc": True},
            "spec error: learn config key 'eps_acc': True is not a valid float\n"),
]

LEARN = [
    Refusal("learn-eps-0.9", ["learn", "--n", "16", "--eps", "0.9"], None,
            "spec error: eps must lie in (0, 1/2), got 0.9\n"),
    Refusal("learn-target-fixed-x", ["learn", "--n", "16", "--target", "fixed:x"], None,
            "spec error: --target 'fixed:x': 'x' is not a valid integer\n"),
    Refusal("learn-target-nope", ["learn", "--n", "16", "--target", "nope"], None,
            "spec error: --target: bad target spec 'nope'; use fixed:<i>, random-pair, "
            "random-concept\n"),
    Refusal("learn-config-target-nope", ["learn"], {"n": 16, "target": "nope"},
            "spec error: learn config key 'target': bad target spec 'nope'; use fixed:<i>, "
            "random-pair, random-concept\n"),
    Refusal("learn-config-target-fixed-x", ["learn"], {"n": 16, "target": "fixed:x"},
            "spec error: learn config key 'target' 'fixed:x': 'x' is not a valid integer\n"),
    *(Refusal(f"learn-document-without-{key}", ["learn"],
              {k: v for k, v in LEARN_DOCUMENT.items() if k != key},
              f"trial config has no {key!r} key")
      for key in ("class", "dist", "target")),
    *(Refusal(f"learn-document-beside-{flag[2:]}", ["learn", flag, value],
              {**LEARN_DOCUMENT, "trials": 20},
              f"spec error: {flag} cannot be given with a learn document, which {refused} it\n")
      for flag, value, refused in (
          ("--n", "64", "replaces"), ("--eps", "0.3", "replaces"), ("--target", "fixed:2", "sets"),
          ("--m", "9", "sets"), ("--trials", "30", "sets"))),
    *(Refusal(f"learn-document-{key}-{shown}", ["learn"], _document(**{key: value}),
              f"spec error: trial config key {named}")
      for key, value, shown, named in (
          ("m", "abc", "abc", "'m'"), ("eps_acc", "high", "high", "'eps_acc'"),
          ("gamma", [1], "list", "'gamma'"),
          ("seed", {"master": "x"}, "master-x", "'seed.master'"))),
    *(Refusal(f"learn-document-{key}-{value}", ["learn"], _document(**{key: value}),
              f"spec error: trial config key {key!r}: {value!r} is not a valid int")
      for key, value in (("m", 2.7), ("m", True), ("trials", 40.9))),
    Refusal("learn-document-eps-acc-true", ["learn"], _document(eps_acc=True),
            "spec error: trial config key 'eps_acc': True is not a valid float\n"),
    Refusal("learn-document-dist-eps-true", ["learn"],
            _document(dist={**LEARN_DOCUMENT["dist"], "eps": True}),
            "spec error: trial config key 'dist.eps': True is not a valid float\n"),
    *(Refusal(f"learn-document-{key}-abc", ["learn"],
              _document(learner=learner, **{key: "abc"}, trials=20),
              f"spec error: trial config key {key!r}: 'abc' is not a number")
      for key, learner in (("cover_level", "cover"), ("learner_eps", "bayes-posterior"))),
    *(Refusal(f"learn-document-{key}-{value}", ["learn"],
              _document(learner=learner, **{key: value}, trials=20),
              f"spec error: {key} must lie in {bounds}, got {value!r}")
      for key, value, learner, bounds in (
          [("learner_eps", v, "bayes-posterior", "(0, 1/2)") for v in (-1, 0, 0.5, 0.7, 5)]
          + [("cover_level", v, "cover", "(0, 1]") for v in (0, -0.0, 1.5)])),
    *(Refusal(f"learn-document-{part}-{key}-{'list' if value == [3] else value}", ["learn"],
              _document(**{part: {**LEARN_DOCUMENT[part], key: value}},
                        **({"target": {"kind": "fixed", "i": 1}} if key == "i" else {})),
              f"spec error: trial config key '{part}.{key}': {value!r} is not a valid")
      for part, key, value in (("dist", "n", "abc"), ("dist", "eps", "low"), ("dist", "i", [3]),
                               ("class", "n", "abc"))),
    Refusal("learn-document-target-kind-nope", ["learn"], _document(target={"kind": "nope"}),
            "spec error: trial config key 'target': unknown target kind 'nope'\n"),
    Refusal("learn-document-target-nope", ["learn"], _document(target="nope"),
            "spec error: trial config key 'target': bad target spec 'nope'; use fixed:<i>, "
            "random-pair, random-concept\n"),
    Refusal("learn-document-target-fixed-x", ["learn"], _document(target="fixed:x"),
            "spec error: trial config key 'target' 'fixed:x': 'x' is not a valid integer\n"),
    *(Refusal(f"learn-document-{key}-with-{learner}", ["learn"],
              _document(learner=learner, **{key: value}, trials=20),
              f"spec error: {key} is read only by the {reader} learner, not by {learner!r}\n")
      for key, value, learner, reader in (
          ("learner_eps", 0.3, "erm", "bayes-posterior"),
          ("learner_eps", 0.3, "cover", "bayes-posterior"),
          ("cover_level", 0.5, "erm", "cover"), ("cover_level", 0.5, "bayes-posterior", "cover"),
          ("memorizer_default", 1, "erm", "memorizer"),
          ("memorizer_default", 1, "cover", "memorizer"))),
    *(Refusal(f"learn-no-oracle-{name}", ["learn"], {**doc, "m": 2, "eps_acc": 0.1, "trials": 50},
              f"spec error: {named}")
      for name, doc, named in (
          ("memorizer-on-projections",
           {"class": {"kind": "projections", "n": 16},
            "dist": {"kind": "pne", "n": 16, "eps": 0.1, "i": 2},
            "target": {"kind": "fixed", "i": 2}, "learner": "memorizer"},
           "the memorizer's exact error needs an enumerable domain"),
          ("posterior-under-product",
           {"class": {"kind": "projections", "n": 4}, "dist": PRODUCT_DIST,
            "target": {"kind": "fixed", "i": 1}, "learner": "bayes-posterior",
            "learner_eps": 0.1},
           "the posterior rule's exact error needs a pne distribution"),
          ("cover-without-level-under-product",
           {"class": {"kind": "projections", "n": 4}, "dist": PRODUCT_DIST,
            "target": {"kind": "fixed", "i": 1}, "learner": "cover"},
           "cover learning needs cover_level unless the distribution is pne"),
          ("posterior-target-fixed-3-under-p1",
           {"class": {"kind": "projections", "n": 16},
            "dist": {"kind": "pne", "n": 16, "eps": 0.2, "i": 1},
            "target": {"kind": "fixed", "i": 3}, "learner": "bayes-posterior"},
           "the posterior rule's exact error needs target fixed:1"),
          ("posterior-random-concept-under-p4",
           {"class": {"kind": "projections", "n": 16},
            "dist": {"kind": "pne", "n": 16, "eps": 0.2, "i": 4},
            "target": {"kind": "random-concept"}, "learner": "bayes-posterior"},
           "the posterior rule's exact error needs target fixed:4"),
          ("erm-65-point-table",
           {"class": wide_table(65)[0], "dist": wide_table(65)[1],
            "target": {"kind": "fixed", "i": 3}, "learner": "erm"}, WIDE_TABLE_REFUSAL),
          ("cover-65-point-table",
           {"class": wide_table(65)[0], "dist": wide_table(65)[1],
            "target": {"kind": "fixed", "i": 3}, "learner": "cover", "cover_level": 0.3},
           WIDE_TABLE_REFUSAL))),
    *(Refusal(f"learn-class-n8-law-n16-{dist['kind']}", ["learn"],
              {"class": {"kind": "projections", "n": 8}, "dist": dist,
               "target": {"kind": "fixed", "i": 3}, "learner": "erm", "m": 2, "eps_acc": 0.1,
               "trials": 10},
              "spec error: the class has n=8, the distribution has n=16\n")
      for dist in ({"kind": "pne", "n": 16, "eps": 0.05, "i": 3},
                   {"kind": "product", "marginals": [0.5] * 16})),
    # In each reader document: a key that nothing reads, at the top and in
    # each object, and each object given as a number.
    *(Refusal(f"learn-reader-document-{d}-{dotted}", ["learn"], _with(doc, dotted, 1),
              f"spec error: trial config has unknown key {dotted!r}\n")
      for d, doc in enumerate(READER_DOCUMENTS)
      for dotted in ["zz", *(f"{path}.zz" for path in _objects(doc))]),
    *(Refusal(f"learn-reader-document-{d}-{path}-number", ["learn"], _with(doc, path, 5),
              f"spec error: trial config key {path!r}: 5 is not a JSON object\n")
      for d, doc in enumerate(READER_DOCUMENTS) for path in _objects(doc)),
]

# A good first entry, a second entry that breaks a rule, and the rule: the
# second is refused before the first entry runs.
LATER_ENTRIES = [
    Refusal(f"{command}-later-entry-{name}", [command], [good, bad], f"spec error: {named}")
    for command, name, good, bad, named in (
        ("learn", "memorizer-on-projections", {"n": 16, "m": 2, "trials": 20},
         {"class": {"kind": "projections", "n": 16},
          "dist": {"kind": "pne", "n": 16, "eps": 0.1, "i": 2},
          "target": {"kind": "fixed", "i": 2}, "learner": "memorizer", "m": 2,
          "eps_acc": 0.1, "trials": 20},
         "the memorizer's exact error needs an enumerable domain"),
        ("lower-bound", "eps-0.3", {"n": 16, "eps": 0.2, "learner": "erm", "trials": 20},
         {"n": 16, "eps": 0.3, "learner": "erm", "trials": 20},
         "eps must lie in (0, 1/4), got 0.3"),
        ("ks-stats", "eps-0.6", {"n": 16, "eps": 0.2, "m": 2, "trials": 20},
         {"n": 16, "eps": 0.6, "m": 2, "trials": 20}, "eps must lie in (0, 1/2), got 0.6"),
        ("no-gap", "pne-family", {"domain_size": 4, "m_grid": "1", "trials": 20},
         {"dist_json": {"kind": "pne", "n": 4, "eps": 0.1}, "m_grid": "1", "trials": 20},
         "no-gap --dist-json needs a finite distribution"),
        ("cover", "class-json-alone", {"n": 64, "eps": 0.05},
         {"class_json": {"kind": "projections", "n": 8}, "level": 0.3},
         "give both --class-json and --dist-json"),
        ("vc", "n-21", {"n": 4}, {"n": 21}, "full hypercube enumeration capped at n = 20"),
        ("cover", "table-under-product",
         {"class_json": wide_table(3)[0], "dist_json": wide_table(3)[1], "level": 0.3},
         {"class_json": wide_table(4)[0], "dist_json": PRODUCT_DIST, "level": 0.3},
         "no exact oracle for TableClass under ProductDistribution"),
        ("vc", "65-point-table", {"n": 4}, {"class_json": wide_table(65)[0]},
         WIDE_TABLE_REFUSAL),
        ("cover", "empty-table-class",
         {"class_json": wide_table(2)[0], "dist_json": wide_table(2)[1], "level": 0.3},
         {"class_json": {"kind": "table", "domain": ["0", "1"], "tables": []},
          "dist_json": wide_table(2)[1], "level": 0.3},
         "cannot cover an empty class"),
        ("cover", "class-json-beside-n", {"n": 64, "eps": 0.05},
         {"class_json": wide_table(3)[0], "dist_json": wide_table(3)[1], "level": 0.3, "n": 8},
         "cover config key 'n' cannot be given with --class-json, which replaces it"),
        ("vc", "class-json-beside-universe", {"n": 4},
         {"class_json": wide_table(3)[0], "universe": "full"},
         "vc config key 'universe' cannot be given with --class-json, which replaces it"),
        ("vc", "default-universe-cells", {"n": 4}, {"n": 3500000, "universe": "default"},
         "universe x class too large for the exhaustive search (85 x 3500000)"),
    )
]

COVER_AND_VC = [
    Refusal("cover-n-1", ["cover", "--n", "1", "--eps", "0.05"], None,
            "spec error: the family needs n >= 2\n"),
    Refusal("cover-class-json-malformed",
            ["cover", "--class-json", "{", "--dist-json", "{}", "--level", "0.3"], None,
            "Invalid value for '--class-json': invalid JSON"),
    *(Refusal(f"cover-level-{level}-{'json' if explicit else 'flags'}",
              ["cover", *(["--class-json", json.dumps({"kind": "projections", "n": 8}),
                           "--dist-json", json.dumps({"kind": "pne", "n": 8, "eps": 0.1, "i": 2})]
                          if explicit else ["--n", "64"]), "--level", level], None,
              f"--level must lie in (0, 1], got {float(level)}")
      for level in ("0", "1.5", "-0.1") for explicit in (False, True)),
    Refusal("cover-nan-marginal",
            ["cover", "--level", "0.1", "--class-json", json.dumps({"kind": "projections", "n": 2}),
             "--dist-json", '{"kind": "product", "marginals": [NaN, 0.5]}'], None,
            "spec error: cover key 'dist_json.marginals'"),
    *(Refusal(f"cover-class-n8-law-n16-{dist['kind']}",
              ["cover", "--level", "0.1", "--class-json",
               json.dumps({"kind": "projections", "n": 8}), "--dist-json", json.dumps(dist)], None,
              "spec error: the class has n=8, the distribution has n=16\n")
      for dist in ({"kind": "pne", "n": 16, "eps": 0.05, "i": 3},
                   {"kind": "product", "marginals": [0.5] * 16})),
    Refusal("cover-support-point-outside-the-domain",
            ["cover", "--class-json", json.dumps(wide_table(3)[0]),
             "--dist-json", json.dumps({**wide_table(3)[1], "support": ["00", "01", "11"]}),
             "--level", "0.3"], None,
            "point '11' is not in the table domain"),
    Refusal("cover-65-point-table",
            ["cover", "--class-json", json.dumps(wide_table(65)[0]),
             "--dist-json", json.dumps(wide_table(65)[1]), "--level", "0.3"], None,
            f"spec error: {WIDE_TABLE_REFUSAL}"),
    Refusal("vc-65-point-table", ["vc", "--class-json", json.dumps(wide_table(65)[0])], None,
            f"spec error: {WIDE_TABLE_REFUSAL}"),
    Refusal("vc-d-max-negative", ["vc", "--n", "4", "--d-max", "-1"], None,
            "Invalid value for '--d-max'"),
]

JSON_OPTIONS = [
    *(Refusal(f"{command}-{option[2:]}-bad-{named.split('.')[1]}-{k}",
              [command, option, json.dumps(value)], None, f"spec error: {command} key '{named}'")
      for k, (command, option, value, named) in enumerate((
          ("no-gap", "--dist-json",
           {"kind": "finite", "support": ["0", "1"], "probs": ["half", 0.5]}, "dist_json.probs"),
          ("no-gap", "--dist-json",
           {"kind": "finite", "support": [5, 1], "probs": [0.5, 0.5]}, "dist_json.support"),
          ("no-gap", "--dist-json", {"kind": "finite", "probs": [0.5, 0.5]},
           "dist_json.support"),
          ("no-gap", "--dist-json",
           {"kind": "finite", "support": ["0", "1"], "probs": [float("nan"), 1]},
           "dist_json.probs"),
          ("no-gap", "--dist-json",
           {"kind": "finite", "support": ["0", "1"], "probs": [None, 1]}, "dist_json.probs"),
          ("vc", "--class-json", {"kind": "table", "tables": ["01"]}, "class_json.domain"),
          ("vc", "--class-json", {"kind": "table", "domain": ["0", "1"], "tables": ["012"]},
           "class_json.tables")))),
    *(Refusal(f"{command}-points-{name}", [command, option, json.dumps(value)], None,
              f"spec error: {command} key '{key}': {points!r} is not a valid PointSet: {reason}")
      for name, points, reason in (
          ("not-0-1", ["01", "0a"], "not a 0/1 string: '0a'"),
          ("not-a-string", ["01", 5], "not a 0/1 string: 5"),
          ("unequal-lengths", ["01", "011"], "points must share a dimension"),
          ("repeated", ["01", "10", "01"], "points must be pairwise distinct"))
      for command, option, key, value in (
          ("vc", "--class-json", "class_json.domain",
           {"kind": "table", "domain": points, "tables": []}),
          ("no-gap", "--dist-json", "dist_json.support",
           {"kind": "finite", "support": points, "probs": [1.0] + [0.0] * (len(points) - 1)}))),
    *(Refusal(f"{args[0]}-json-option-{name}", args, None, f"spec error: {message}\n")
      for name, args, message in (
          ("class-json-unknown-key",
           ["cover", "--class-json", '{"kind": "projections", "n": 4, "x": 1}',
            "--dist-json", PNE_4, "--level", "0.1"], "cover has unknown key 'class_json.x'"),
          ("dist-json-unknown-key",
           ["cover", "--class-json", '{"kind": "projections", "n": 4}', "--dist-json",
            '{"kind": "pne", "n": 4, "eps": 0.1, "i": 1, "zz": 3}', "--level", "0.1"],
           "cover has unknown key 'dist_json.zz'"),
          ("table-unknown-key",
           ["vc", "--class-json",
            '{"kind": "table", "domain": ["0", "1"], "tables": ["01"], "extra": 1}'],
           "vc has unknown key 'class_json.extra'"),
          ("class-json-a-list",
           ["cover", "--class-json", "[1]", "--dist-json", PNE_4, "--level", "0.1"],
           "cover key 'class_json': [1] is not a JSON object"),
          ("dist-json-a-string", ["no-gap", "--dist-json", '"x"'],
           "no-gap key 'dist_json': 'x' is not a JSON object"),
          # A falsy value is read, not taken as absent.
          ("class-json-empty-list", ["vc", "--n", "4", "--class-json", "[]"],
           "vc key 'class_json': [] is not a JSON object"),
          ("dist-json-0", ["no-gap", "--dist-json", "0"],
           "no-gap key 'dist_json': 0 is not a JSON object"),
          ("empty-objects", ["cover", "--n", "16", "--class-json", "{}", "--dist-json", "{}"],
           "cover key 'class_json': unknown class kind None"))),
    *(Refusal(f"no-gap-law-{k}-without-finite-support", ["no-gap", "--dist-json", json.dumps(law)],
              None, "spec error: no-gap --dist-json needs a finite distribution\n")
      for k, law in enumerate(({"kind": "pne", "n": 4, "eps": 0.1},
                               {"kind": "pne", "n": 4, "eps": 0.1, "i": 2},
                               {"kind": "product", "marginals": [0.5, 0.1]}))),
]

# The list flags, given as flags and as flat config keys.
LISTS = [
    *(Refusal(f"{command}-{flag[2:]}-{value}", [command, flag, value], None,
              f"spec error: {flag} {value!r} is not a comma-separated list of integers\n")
      for command, flag, value in (
          ("separation", "--n-list", "16,abc"), ("separation", "--n-list", "1.5"),
          ("no-gap", "--m-grid", "1,x"), ("no-gap", "--m-grid", "2,,1e3"))),
    *(Refusal(f"{command}-{flag[2:]}-comma", [command, flag, ",", "--trials", "10"], None,
              f"spec error: {flag} ',' lists no integers\n")
      for command, flag in (("no-gap", "--m-grid"), ("separation", "--n-list"))),
    *(Refusal(f"separation-{flag[2:]}-{value or 'empty'}", ["separation", flag, value], None,
              f"spec error: {flag} {message}\n")
      for flag, value, message in (
          ("--n-list", "16,16", "'16,16' lists a value twice"),
          ("--learners", "erm,erm", "'erm,erm' lists a value twice"),
          ("--learners", "", f"'' lists no {LEARNERS}"),
          ("--learners", "erm,x", f"'erm,x' is not a comma-separated list of {LEARNERS}"))),
    Refusal("no-gap-m-grid-1,2,1", ["no-gap", "--m-grid", "1,2,1"], None,
            "spec error: --m-grid '1,2,1' lists a value twice\n"),
    Refusal("separation-config-n-list-16,x", ["separation"], {"n_list": "16,x"},
            "spec error: separation config key 'n_list' '16,x' is not a comma-separated list "
            "of integers\n"),
    Refusal("separation-config-n-list-0", ["separation"], {"n_list": "0"},
            "spec error: separation config key 'n_list' must lie in [1, 2^63 - 1], got 0\n"),
    Refusal("separation-config-learners-erm,x", ["separation"], {"learners": "erm,x"},
            f"spec error: separation config key 'learners' 'erm,x' is not a comma-separated "
            f"list of {LEARNERS}\n"),
    Refusal("no-gap-config-m-grid-a-list", ["no-gap"], {"m_grid": [1, 2]},
            "spec error: no-gap config key 'm_grid' '[1, 2]' is not a comma-separated list of "
            "integers\n"),
]

OTHERS = [
    # No point of the search could succeed: refused before the grid reaches a
    # worker, whether its searches run whole on workers or one after another.
    *(Refusal(f"separation-radius-above-delta-threads-{threads}",
              ["--threads", threads, "separation", "--n-list", "100,101,102,103",
               "--learners", "erm", "--trials", "10"], None,
              "spec error: CI radius 0.5147 at 10 trials can never certify failure <= 0.0625; "
              "increase trials or delta\n")
      for threads in ("1", "2")),
    Refusal("bounds-eps-2", ["bounds", "--eps", "2.0"], None,
            "Invalid value for '--eps': --eps must lie in (0, 1], got 2.0"),
    *(Refusal(f"bounds-sauer-sum-k{k}-d{d}", ["bounds", "--k", str(k), "--d", str(d)], None,
              f"spec error: the Sauer sum for K={k}, d={d} may pass 4300 digits")
      for k, d in ((20000, 10000), (100000000, 50000000), (9223372036854775807, 300))),
]

ROWS = GLOBAL_FLAGS + CONFIG_FILES + LEARN + LATER_ENTRIES + COVER_AND_VC + JSON_OPTIONS \
    + LISTS + OTHERS

# Tests outside the corpus that assert exit 2, and what each checks beyond it.
STAYS = {
    "test_cli.py::test_an_input_refuses_the_flags_it_replaces":
        "also runs the spec without the refused flags and compares its body",
    "test_cli.py::test_a_bad_later_key_exits_2_before_any_entry_is_built":
        "patches TrialConfig.__post_init__: no entry is built, not only none run",
    "test_cli.py::test_threads_above_the_cpu_count_exits_2_before_any_pool":
        "patches os.cpu_count to 3 and to None, and runs at the bound itself",
    "test_spec_fields.py::test_any_value_of_a_numeric_key_runs_or_is_a_spec_error_before_any_trial":
        "draws values by hypothesis; exit 0 is as good as exit 2 there",
}
