"""PneReplay reads a pne member's reference draw cell by cell: what it reports
must be what the dense draw (sample_bit_matrix) gives, and the trials that
use it must keep their bodies."""

import hashlib

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from gaplab import distributions, mc_harness
from gaplab.cli import main
from gaplab.concepts import ProjectionClass, packed_column
from gaplab.distributions import PneReplay, RngSeed, make_pne, sample_bit_matrix
from gaplab.learners import LabeledSample, erm
from gaplab.mc_harness import _replayed_erm, matched_pair_config, run_trial


def _dense_record(n, eps, i, m, seed):
    """(labels, first consistent column, K, erm's choice) from the dense draw,
    which starts after the hidden index is drawn, as in a trial."""
    gen = RngSeed(seed).generator(0)
    gen.integers(1, n + 1)
    words = sample_bit_matrix(make_pne(n, eps, i), m, gen)
    sample = LabeledSample(words, packed_column(words, i), n)
    mask = sample.column_match_mask()
    first = int(np.flatnonzero(np.unpackbits(mask.view(np.uint8), bitorder="little"))[0]) + 1
    k = int(np.bitwise_count(mask).sum())
    return sample.labels.tolist(), first, k, erm(ProjectionClass(n), sample)


def _replay_record(n, eps, i, m, seed):
    gen = RngSeed(seed).generator(0)
    gen.integers(1, n + 1)
    replay = PneReplay(make_pne(n, eps, i), m, gen)
    below = replay.first_consistent(0, i - 1)
    first = i if below is None else below + 1
    k = 1 + replay.consistent(0, n).size
    return replay.labels.tolist(), first, k, _replayed_erm(replay)


# n from 2 to 2^17, log-uniform, so that few examples reach the top.
sizes = st.integers(1, 17).flatmap(lambda b: st.integers(max(2, 2 ** (b - 1)), 2**b))


@settings(max_examples=150, deadline=None)
@given(
    n=sizes,
    m=st.integers(0, 20),
    eps=st.sampled_from([0.05, 0.1, 0.2, 0.45]),
    where=st.sampled_from(["first", "middle", "last"]),
    seed=st.integers(0, 2**32),
)
def test_replay_matches_the_dense_draw(n, m, eps, where, seed):
    i = {"first": 1, "middle": (n + 1) // 2, "last": n}[where]
    assert _replay_record(n, eps, i, m, seed) == _dense_record(n, eps, i, m, seed)


@pytest.mark.parametrize("n, m, eps, i", [
    (1000, 6, 0.1, 1), (1000, 6, 0.45, 700), (1000, 12, 0.05, 1000), (3000, 9, 0.2, 1500),
])
def test_replay_spans_longer_than_a_block(monkeypatch, n, m, eps, i):
    # Dense spans are read in pieces of at most _BLOCK_CELLS cells.
    monkeypatch.setattr(distributions, "_BLOCK_CELLS", 256)
    for seed in range(20):
        assert _replay_record(n, eps, i, m, seed) == _dense_record(n, eps, i, m, seed)


def test_bits_refuses_columns_at_or_above_the_fair_one():
    replay = PneReplay(make_pne(64, 0.1, 10), 3, RngSeed(1).generator(0))
    assert replay.bits(0, 9).shape == (3, 9)
    with pytest.raises(ValueError):
        replay.bits(0, 10)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(mc_harness, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mc_harness, name, counted)
    return calls


@pytest.mark.parametrize("learner, draws", [("erm", 0), ("bayes-posterior", 1)])
def test_matched_pair_trial_at_n_2_17_draws(monkeypatch, learner, draws):
    # At m = 2 ERM replays its draw, while the posterior rule keeps the dense one.
    draws_made = _counting(monkeypatch, "sample_bit_matrix")
    erm_calls = _counting(monkeypatch, "erm")
    cfg = matched_pair_config(1 << 17, 0.2, learner, 2, 1 / 16, 1, RngSeed(4))
    run_trial(cfg, 0)
    assert len(draws_made) == draws
    # erm still chooses on the replayed path.
    assert len(erm_calls) == (learner == "erm")


# Bodies recorded before the replay existed, from the dense draw.
REPLAYED_GOLDEN = {
    "lower-bound-erm": (
        ["--seed", "201", "lower-bound", "--learner", "erm", "--n", "131072",
         "--eps", "0.2", "--trials", "200"],
        "da3c0fc5a72b65dbccf60ac1885ad3617576235fdfdc2b1b3171e4f72645d32d",
    ),
    "separation-8192": (
        ["--seed", "202", "separation", "--n-list", "8192",
         "--learners", "erm,bayes-posterior", "--trials", "300", "--delta", "0.25"],
        "f8bd24ad109aa8e2432972b4e289dcb2107e8c1ac1b2f6f5a5fe637dfba2ee58",
    ),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("spec", sorted(REPLAYED_GOLDEN))
def test_replayed_bodies_are_unchanged(tmp_path, spec, threads):
    args, want = REPLAYED_GOLDEN[spec]
    out = tmp_path / f"{spec}.csv"
    res = CliRunner().invoke(main, ["--threads", threads, "--out", str(out), *args])
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
