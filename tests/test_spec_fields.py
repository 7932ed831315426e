"""The table of numeric spec fields: every numeric flag, flat config entry and
document key has a row, the README shows the same rows, and no value of any
kind gets past the table into a trial or out as a runtime failure."""

import json
import math
import re
from pathlib import Path
from unittest import mock

import click
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaplab import mc_harness
from gaplab.cli import COMMANDS, _check_flag, main
from gaplab.errors import SPEC_FIELDS, InvalidParameterError, spec_value
from gaplab.mc_harness import config_from_json_dict

README = Path(__file__).resolve().parent.parent / "README.md"

NOUNS = {int: "integer", float: "float"}


def _numeric_options():
    for cmd in COMMANDS:
        for option in cmd.options:
            if isinstance(option.type, (click.types.IntParamType, click.types.FloatParamType)):
                yield cmd.name, option


def test_every_numeric_flag_has_a_row_and_is_checked_by_it():
    options = list(_numeric_options())
    assert len(options) > 20
    group_numbers = [p for p in main.params if p.name in ("seed", "trials")]
    for name, option in options + [("gaplab", p) for p in group_numbers]:
        assert option.name in SPEC_FIELDS, f"{name} {option.opts[0]} has no spec-field row"
        assert option.callback is _check_flag, f"{name} {option.opts[0]} bypasses its row"


class _Recording(dict):
    """A JSON object that logs the dotted path of every key read from it."""

    def __init__(self, data: dict, log: set, path: str = ""):
        super().__init__({k: _Recording(v, log, f"{path}{k}.") if isinstance(v, dict) else v
                          for k, v in data.items()})
        self._log, self._path = log, path

    def __getitem__(self, key):
        self._log.add(self._path + key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._log.add(self._path + key)
        return super().get(key, default)


# Between them these documents hold every key the three readers read.
READER_DOCUMENTS = [
    {"class": {"kind": "projections", "n": 16},
     "dist": {"kind": "pne", "n": 16, "eps": 0.1, "i": 3},
     "target": {"kind": "fixed", "i": 3}, "learner": "cover", "m": 2, "eps_acc": 0.1,
     "trials": 5, "gamma": 0.01, "seed": {"master": 1, "stream": 2}, "cover_level": 0.3},
    {"class": {"kind": "projections", "n": 2},
     "dist": {"kind": "product", "marginals": [0.5, 0.25]},
     "target": {"kind": "random-concept"}, "learner": "erm", "m": 2, "eps_acc": 0.1,
     "trials": 5},
    {"class": {"kind": "table", "domain": ["0", "1"], "tables": ["01", "10"]},
     "dist": {"kind": "finite", "support": ["0", "1"], "probs": [0.5, 0.5]},
     "target": {"kind": "fixed", "i": 1}, "learner": "memorizer", "m": 2, "eps_acc": 0.1,
     "trials": 5, "memorizer_default": 1},
    {"class": {"kind": "projections", "n": 16},
     "dist": {"kind": "pne", "n": 16, "eps": 0.1, "i": 3},
     "target": {"kind": "fixed", "i": 3}, "learner": "bayes-posterior", "m": 2,
     "eps_acc": 0.1, "trials": 5, "learner_eps": 0.1},
]


def _leaves(obj: dict, path: str = ""):
    """(dotted path, value) of every key of obj that does not hold an object."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{path}{key}.")
        else:
            yield path + key, value


def _with(obj: dict, path: str, value) -> dict:
    head, _, rest = path.partition(".")
    return {**obj, head: _with(obj[head], rest, value) if rest else value}


def test_every_numeric_document_key_has_a_row_and_is_checked_by_it():
    read = set()
    for doc in READER_DOCUMENTS:
        config_from_json_dict(_Recording(doc, read))
    held = {path for doc in READER_DOCUMENTS for path, _ in _leaves(doc)}
    held |= {path.rpartition(".")[0] for path in held}
    assert read <= held, f"keys no test document holds: {sorted(read - held)}"
    for doc in READER_DOCUMENTS:
        for path, value in _leaves(doc):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            row = path if path in SPEC_FIELDS else path.rpartition(".")[2]
            assert row in SPEC_FIELDS, f"document key {path!r} has no spec-field row"
            with pytest.raises(InvalidParameterError,
                               match=re.escape(f"key {path!r}: True is not a ")):
                config_from_json_dict(_with(doc, path, True))


def _readme_rows() -> dict[str, tuple[str, str, bool]]:
    section = README.read_text().split("### Spec fields", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        match = re.fullmatch(r"\| `([\w.]+)` \| (\w+) \| (.+?) \| (yes|no) \|", line)
        if match:
            rows[match[1]] = (match[2], match[3], match[4] == "yes")
    return rows


def test_readme_spec_field_table_matches_the_code():
    assert _readme_rows() == {
        key: (NOUNS.get(row.kind, "number"), row.interval, row.optional)
        for key, row in SPEC_FIELDS.items()
    }


# One valid flat entry per command, with trials <= 20 and an accuracy at
# which the separation search brackets at m = 1, so that every valid value
# below runs to exit 0.
FLAT = {
    "cover": {"n": 64, "eps": 0.05, "i": 3},
    "vc": {"n": 4},
    "learn": {"n": 16, "eps": 0.1, "m": 2, "eps_acc": 0.0625, "gamma": 0.01, "trials": 20},
    "separation": {"n_list": "16", "eps": 0.1, "eps_acc": 0.5, "delta": 0.5,
                   "learners": "erm", "trials": 20, "m_max": 4},
    "lower-bound": {"n": 16, "eps": 0.2, "learner": "erm", "trials": 20, "gamma": 0.01},
    "ks-stats": {"n": 16, "eps": 0.2, "m": 2, "trials": 20, "gamma": 0.01},
    "no-gap": {"domain_size": 4, "m_grid": "1", "eps_acc": 0.1, "trials": 20},
    "bounds": {"cover_size": 2, "eps": 0.2, "delta": 0.1, "d": 3, "k": 10},
}
DOCUMENT = {
    "class": {"kind": "projections", "n": 16},
    "dist": {"kind": "pne", "n": 16, "eps": 0.1, "i": 3},
    "target": {"kind": "fixed", "i": 3}, "learner": "erm", "m": 2, "eps_acc": 0.0625,
    "trials": 20, "gamma": 0.01, "seed": {"master": 1, "stream": 2},
}
# A key only one learner reads is varied in a document of that learner.
LEARNER_DOCUMENTS = {
    "cover_level": {**DOCUMENT, "learner": "cover", "cover_level": 0.3},
    "learner_eps": {**DOCUMENT, "learner": "bayes-posterior", "learner_eps": 0.1},
    "memorizer_default": {
        "class": {"kind": "table", "domain": ["0", "1"], "tables": ["01", "10"]},
        "dist": {"kind": "finite", "support": ["0", "1"], "probs": [0.5, 0.5]},
        "target": {"kind": "fixed", "i": 1}, "learner": "memorizer", "m": 2,
        "eps_acc": 0.0625, "trials": 20, "memorizer_default": 0,
    },
}
# Valid values of the optional flags the flat entries leave out.
VALID = {"level": 0.1, "d_max": 2}

CASES = (
    [(form, command, option.name) for command, option in _numeric_options()
     for form in ("flag", "flat")]
    + [("document", "learn", path) for path, value in _leaves(DOCUMENT)
       if isinstance(value, (int, float))]
    + [("document", "learn", key) for key in LEARNER_DOCUMENTS]
)
ODD = [math.nan, math.inf, -math.inf, None, [], {}, True, "abc", 1e300]


def _values(form: str, command: str, key: str) -> list:
    row = SPEC_FIELDS[key if key in SPEC_FIELDS else key.rpartition(".")[2]]
    document = LEARNER_DOCUMENTS.get(key, DOCUMENT)
    valid = dict(_leaves(document)) if form == "document" else {**VALID, **FLAT[command]}
    # Every end of the interval but 2^63 - 1, 2^64 - 1 (too large a run) and inf.
    ends = [0.5 if end == "1/2" else int(end) for end in row.interval[1:-1].split(", ")
            if "^" not in end and end != "inf"]
    return [valid[key], *ends, *ODD]


@given(case=st.sampled_from(CASES), data=st.data())
@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_value_of_a_numeric_key_runs_or_is_a_spec_error_before_any_trial(
        tmp_path, case, data):
    form, command, key = case
    value = data.draw(st.sampled_from(_values(form, command, key)), label="value")
    entry = {k: v for k, v in FLAT[command].items() if k != key}
    args = []
    if form == "flag":
        text = value if isinstance(value, str) else json.dumps(value)
        args = [f"--{key.replace('_', '-')}", text]
    elif form == "flat":
        entry[key] = value
    else:
        entry = _with(LEARNER_DOCUMENTS.get(key, DOCUMENT), key, value)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(entry))
    calls = []

    def counting(*a, **kw):
        calls.append(1)
        return map_trials(*a, **kw)

    map_trials = mc_harness._map_trials
    with mock.patch.object(mc_harness, "_map_trials", counting):
        res = CliRunner().invoke(main, ["--out", str(tmp_path / "out"), command,
                                        "--config", str(config), *args])
    assert res.exit_code in (0, 2), res.output
    if res.exit_code == 2:
        assert not calls, res.output


def test_spec_value_names_where_the_value_came_from():
    with pytest.raises(InvalidParameterError, match=r"^learn config key 'm': 2.5 is not a valid"):
        spec_value("m", 2.5, "learn config")
    with pytest.raises(InvalidParameterError,
                       match=re.escape("--eps must lie in (0, 1], got nan")):
        spec_value("eps", math.nan, "learn config", label="--eps")
    assert spec_value("n", 16.0) == 16 and type(spec_value("eps_acc", 1)) is float
