import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab import distributions
from gaplab.concepts import PointSet, enumerated_domain, pack_bit_rows
from gaplab.distributions import (
    FiniteSupportDistribution,
    PneFamily,
    PneMember,
    PneReplay,
    ProductDistribution,
    RngSeed,
    distribution_from_json_dict,
    geometric_finite,
    make_pne,
    missing_mass_fraction,
    mix64,
    sample_bit_matrix,
    sample_coordinate_columns,
    sample_support_indices,
    uniform_finite,
)
from gaplab.errors import DimensionMismatchError, InvalidParameterError
from reference import (Point, hypercube_points, missing_mass, point_prob, row_points,
                       sample_points, trial_seed)


class TestRngSeed:
    def test_trial_seeds_are_pure_and_distinct(self):
        s = RngSeed(123, 5)
        seeds = [trial_seed(s, t) for t in range(200)]
        assert seeds == [trial_seed(RngSeed(123, 5), t) for t in range(200)]
        assert len(set(seeds)) == 200

    def test_streams_differ(self):
        a = trial_seed(RngSeed(7, 0), 3)
        b = trial_seed(RngSeed(7, 1), 3)
        assert a != b

    def test_substream_is_deterministic(self):
        assert RngSeed(9).substream(4) == RngSeed(9).substream(4)
        assert RngSeed(9).substream(4) != RngSeed(9).substream(5)

    def test_mix64_avalanche_smoke(self):
        # flipping one input bit flips roughly half the output bits
        flips = bin(mix64(1234567) ^ mix64(1234567 ^ 1)).count("1")
        assert 16 <= flips <= 48

    def test_range_validation(self):
        with pytest.raises(InvalidParameterError):
            RngSeed(-1)
        with pytest.raises(InvalidParameterError):
            RngSeed(1 << 64)

    def test_last_block_ends_at_two_to_the_64(self):
        # The block of index 2^64 - 1 covers indices up to 2^64, one past
        # the largest uint64.
        seed = RngSeed(2**64 - 1, 2**64 - 1)
        last = 2**64 - 1
        for index in (last - 255, last - 1, last):
            _assert_generator_is_pcg64_of_trial_seed(seed, index)


def _assert_generator_is_pcg64_of_trial_seed(seed: RngSeed, index: int) -> None:
    scalar = trial_seed(seed, index)
    reference = np.random.Generator(np.random.PCG64(scalar))
    assert np.array_equal(seed.generator(index).random(8), reference.random(8))
    words = distributions._block_seed_words(seed.master, seed.stream, index >> 8)[index % 256]
    assert np.array_equal(words, np.random.SeedSequence(scalar).generate_state(4, np.uint64))


_EDGE_INDICES = (0, 255, 256, 257, 2**32, 2**64 - 1)


@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 1),
    st.one_of(st.sampled_from(_EDGE_INDICES), st.integers(0, 2**64 - 1)),
)
@settings(max_examples=200, deadline=None)
def test_block_seeding_equals_pcg64_of_the_trial_seed(master, stream, index):
    _assert_generator_is_pcg64_of_trial_seed(RngSeed(master, stream), index)


def test_seed_words_match_seed_sequence_at_word_edges():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    words = distributions.seed_sequence_words(np.array(seeds, dtype=np.uint64))
    for s, row in zip(seeds, words):
        assert np.array_equal(row, np.random.SeedSequence(s).generate_state(4, np.uint64))


class TestMakePne:
    def test_examples(self):
        d = make_pne(3, 0.01, 2)
        assert np.allclose(d.marginals, [0.01, 0.5, 0.01])
        d2 = make_pne(2, 0.25, 1)
        assert np.allclose(d2.marginals, [0.5, 0.25])

    def test_eps_open_interval(self):
        with pytest.raises(InvalidParameterError):
            make_pne(4, 0.5, 1)
        with pytest.raises(InvalidParameterError):
            make_pne(4, 0.0, 1)

    def test_index_range(self):
        with pytest.raises(InvalidParameterError):
            make_pne(4, 0.1, 5)
        with pytest.raises(InvalidParameterError):
            make_pne(1, 0.1, 1)

    def test_family_member(self):
        fam = PneFamily(6, 0.2)
        assert np.allclose(fam.member(3).marginals, [0.2, 0.2, 0.5, 0.2, 0.2, 0.2])

    @pytest.mark.parametrize("n, eps", [(2, 0.25), (65, 0.1), (300, 0.3)])
    def test_member_matches_make_pne_and_a_built_vector(self, n, eps):
        fam = PneFamily(n, eps)
        for i in (1, n // 2 + 1, n):
            d = fam.member(i)
            want = np.full(n, eps)
            want[i - 1] = 0.5
            assert d.marginals.dtype == np.float64
            assert np.array_equal(d.marginals, want)
            assert np.array_equal(d.marginals, make_pne(n, eps, i).marginals)
            assert d == make_pne(n, eps, i)
            assert (d.n, d.eps, d.i) == (n, eps, i)
            assert not d.marginals.flags.writeable
            assert d.to_json_dict() == {"kind": "pne", "n": n, "eps": eps, "i": i}

    def test_members_do_not_share_marginals(self):
        fam = PneFamily(5, 0.1)
        a, b = fam.member(1), fam.member(5)
        assert a.marginals[0] == 0.5 and a.marginals[4] == 0.1
        assert b.marginals[0] == 0.1 and b.marginals[4] == 0.5

    @pytest.mark.parametrize("i", [0, -1, 7, 100])
    def test_member_index_range(self, i):
        with pytest.raises(InvalidParameterError, match="out of range 1..6"):
            PneFamily(6, 0.2).member(i)

    def test_family_pickles_without_cached_vector(self):
        fam = PneFamily(1 << 12, 0.1)
        fam.member(1)
        blob = pickle.dumps(fam)
        assert len(blob) < 1000
        back = pickle.loads(blob)
        assert back == fam
        assert np.array_equal(back.member(7).marginals, fam.member(7).marginals)


class TestPointProb:
    def test_examples(self):
        d = make_pne(2, 0.25, 1)
        assert point_prob(d, Point.from_string("10")) == pytest.approx(0.375, abs=1e-15)
        u = ProductDistribution(np.array([0.5, 0.5]))
        assert point_prob(u, Point.from_string("11")) == pytest.approx(0.25, abs=1e-15)

    def test_finite_missing_point_is_zero(self):
        dom = enumerated_domain(3)
        d = uniform_finite(dom)
        outside = Point.from_string("11")
        assert point_prob(d, outside) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            point_prob(make_pne(4, 0.1, 1), Point.from_string("001"))

    def test_matches_product_of_marginals_oracle(self):
        rng = np.random.default_rng(0)
        marg = rng.random(8)
        d = ProductDistribution(marg)
        for _ in range(20):
            bits = rng.integers(0, 2, 8)
            x = Point.from_bits(bits)
            expected = 1.0
            for j, b in enumerate(bits):
                expected *= marg[j] if b else 1.0 - marg[j]
            assert point_prob(d, x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("dist", [make_pne(10, 0.07, 4),
                                      ProductDistribution(np.linspace(0.05, 0.95, 10))])
    def test_sums_to_one_over_hypercube(self, dist):
        total = sum(point_prob(dist, x) for x in hypercube_points(10))
        assert abs(total - 1.0) <= 1e-9


class TestSampling:
    def test_zero_draws(self):
        assert sample_points(make_pne(4, 0.1, 1), 0, RngSeed(1)) == []

    def test_point_mass(self):
        dom = enumerated_domain(2)
        d = FiniteSupportDistribution(dom, [1.0, 0.0])
        pts = sample_points(d, 5, RngSeed(1))
        assert pts == [Point.from_string("0")] * 5

    def test_deterministic_given_seed(self):
        d = make_pne(40, 0.2, 7)
        a = sample_points(d, 20, RngSeed(11, 3))
        b = sample_points(d, 20, RngSeed(11, 3))
        assert a == b
        c = sample_points(d, 20, RngSeed(11, 4))
        assert a != c

    def test_block_path_matches_per_row_reference(self):
        # Drawing the matrix in one call consumes the stream exactly like
        # drawing row by row.
        d = make_pne(37, 0.3, 2)
        words = sample_bit_matrix(d, 6, RngSeed(5).generator(0))
        gen = RngSeed(5).generator(0)
        rows = [sample_bit_matrix(d, 1, gen)[0] for _ in range(6)]
        assert np.array_equal(words, np.stack(rows))

    def test_coordinate_columns_match_marginals(self):
        d = make_pne(50, 0.1, 9)
        gen = RngSeed(3).generator(0)
        cols = sample_coordinate_columns(d, [2, 9, 50], 20000, gen)
        freq = cols.mean(axis=0)
        assert abs(freq[0] - 0.1) < 0.01
        assert abs(freq[1] - 0.5) < 0.015
        assert abs(freq[2] - 0.1) < 0.01

    def test_empirical_marginals_at_one_million(self):
        d = make_pne(4, 0.01, 1)
        words = sample_bit_matrix(d, 1_000_000, RngSeed(2024).generator(0))
        from gaplab.concepts import unpack_bit_rows

        bits = unpack_bit_rows(words, 4)
        freq = bits.mean(axis=0)
        radius = math.sqrt(math.log(2 / 0.01) / (2 * 1_000_000))
        assert radius < 0.002
        assert abs(freq[0] - 0.5) < radius
        for j in (1, 2, 3):
            assert abs(freq[j] - 0.01) < radius

    def test_negative_m_rejected(self):
        with pytest.raises(InvalidParameterError):
            sample_points(make_pne(4, 0.1, 1), -1, RngSeed(0))

    @pytest.mark.parametrize(
        "dist",
        [make_pne(40, 0.1, 7),
         ProductDistribution(np.linspace(0.05, 0.95, 40))],
        ids=["pne", "product"],
    )
    def test_coordinate_columns_match_one_call_per_column(self, dist):
        coords, m = [1, 7, 8, 23, 40], 13
        gen = RngSeed(9).generator(0)
        bits = sample_coordinate_columns(dist, coords, m, gen)
        ref_gen = RngSeed(9).generator(0)
        ref = np.stack([ref_gen.random(m) < dist.marginal(c) for c in coords], axis=1)
        assert bits.dtype == np.uint8 and bits.shape == (m, len(coords))
        assert np.array_equal(bits, ref)
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize("coord", [0, 41])
    def test_coordinate_columns_reject_an_outside_coordinate(self, coord):
        with pytest.raises(InvalidParameterError, match=f"coordinate {coord} out of range"):
            sample_coordinate_columns(make_pne(40, 0.1, 7), [3, coord], 2,
                                      RngSeed(0).generator(0))


class _TopOfUnitGenerator:
    """A generator whose every uniform is the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("d", [6, 7, 10])
def test_top_uniform_draws_the_last_support_point(d):
    dist = uniform_finite(enumerated_domain(d))
    assert np.cumsum(dist.probs)[-1] < 1.0  # the float sum falls short of 1
    assert sample_support_indices(dist, 2, _TopOfUnitGenerator()).tolist() == [d - 1, d - 1]


def test_top_uniform_skips_a_trailing_zero_mass_point():
    dist = FiniteSupportDistribution(enumerated_domain(11), [0.1] * 10 + [0.0])
    assert np.cumsum(dist.probs)[-1] < 1.0
    assert sample_support_indices(dist, 2, _TopOfUnitGenerator()).tolist() == [9, 9]
    gen = RngSeed(4).generator(0)
    assert 10 not in sample_support_indices(dist, 5000, gen)


def _block_rows(n: int) -> int:
    return max(1, distributions._BLOCK_CELLS // n)


def _row_block_cases():
    for n in (1, 63, 64, 65, 4096, 2**17, 2**17 + 1):
        rows = _block_rows(n)
        for m in sorted({0, 1, rows - 1, rows, rows + 1, 3 * rows + 2}):
            yield n, m


@pytest.mark.parametrize("n, m", list(_row_block_cases()))
def test_row_blocks_match_one_whole_draw(n, m):
    rng = np.random.default_rng(n)
    dists = [ProductDistribution(rng.random(n))]
    if n >= 2:
        dists += [make_pne(n, 0.1, 1), make_pne(n, 0.3, n)]
    else:
        dists.append(PneMember(1, 0.2, 1))
    for t, dist in enumerate(dists):
        reference = RngSeed(n, m).generator(t)
        want = pack_bit_rows(reference.random((m, n)) < dist.marginals)
        gen = RngSeed(n, m).generator(t)
        words = sample_bit_matrix(dist, m, gen)
        assert words.dtype == want.dtype and words.shape == want.shape
        assert np.array_equal(words, want)
        # The stream stops where the whole draw stops, so later draws
        # (ks-stats's test point) stay aligned.
        assert gen.bit_generator.state == reference.bit_generator.state


def test_draw_memory_is_bounded_by_one_row_block():
    n, m = 2**14, 1024
    dist = make_pne(n, 0.1, 5)
    gen = RngSeed(7).generator(0)
    tracemalloc.start()
    try:
        words = sample_bit_matrix(dist, m, gen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The whole-matrix draw peaked at 146 MiB here: 8 m n bytes of doubles.
    assert peak <= words.nbytes + 4 * 2**20


@pytest.mark.parametrize("dist", [
    make_pne(1000, 0.1, 1), make_pne(1000, 0.3, 257), make_pne(1000, 0.2, 700),
    make_pne(1000, 0.45, 1000), ProductDistribution(np.linspace(0.0, 1.0, 1000)),
])
def test_long_rows_are_drawn_in_word_chunks(monkeypatch, dist):
    whole = RngSeed(5).generator(0)
    want = sample_bit_matrix(dist, 3, whole)
    # Rows of 1000 cells are now longer than a block: chunks of 256 columns.
    monkeypatch.setattr(distributions, "_BLOCK_CELLS", 256)
    chunked = RngSeed(5).generator(0)
    words = sample_bit_matrix(dist, 3, chunked)
    assert words.shape == want.shape
    assert np.array_equal(words, want)
    assert chunked.bit_generator.state == whole.bit_generator.state


def test_long_row_draw_holds_no_row():
    n = 2**22
    dist = make_pne(n, 0.1, n // 3)
    gen = RngSeed(8).generator(0)
    tracemalloc.start()
    try:
        words = sample_bit_matrix(dist, 1, gen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert words.nbytes == n // 8
    # One row of doubles would be 32 MiB; the chunk buffers are 1.1 MiB.
    assert peak <= words.nbytes + 1.2 * 2**20


def _check_dense_draws_read_the_stream():
    for n, m in [(63, 5), (1000, 700)]:
        dist = make_pne(n, 0.3, 7)
        reference = RngSeed(n, m).generator(0)
        want = pack_bit_rows(reference.random((m, n)) < dist.marginals)
        gen = RngSeed(n, m).generator(0)
        assert np.array_equal(sample_bit_matrix(dist, m, gen), want)
        assert gen.bit_generator.state == reference.bit_generator.state


def test_dense_draws_after_a_replay_grows_the_buffers(monkeypatch):
    # Put back afterwards, so that the grown buffers are freed.
    monkeypatch.setattr(distributions, "_block_scratch", distributions._block_scratch)
    _check_dense_draws_read_the_stream()
    n = 2 * distributions._block_scratch[0].size
    monkeypatch.setattr(distributions, "_BLOCK_CELLS", n)
    # Whole rows of n cells are read as single spans, longer than the buffers.
    PneReplay(make_pne(n, 0.1, 5), 2, RngSeed(3).generator(0)).consistent(0, n)
    assert distributions._block_scratch[0].size >= n
    _check_dense_draws_read_the_stream()


@pytest.mark.parametrize("make, message", [
    (lambda: ProductDistribution(np.array([np.nan, 0.5])), "marginals must lie in"),
    (lambda: FiniteSupportDistribution(enumerated_domain(2), [np.nan, 1.0]),
     "probabilities must be non-negative"),
    (lambda: FiniteSupportDistribution(enumerated_domain(2), [None, 1.0]),
     "probabilities must be non-negative"),
])
def test_a_nan_in_a_vector_is_out_of_range(make, message):
    # NaN fails every comparison, so each range test is written to pass only
    # values inside the range.
    with pytest.raises(InvalidParameterError, match=message):
        make()


class TestFiniteSupport:
    def test_validation(self):
        dom = enumerated_domain(2)
        with pytest.raises(InvalidParameterError):
            FiniteSupportDistribution(dom, [0.6, 0.6])
        with pytest.raises(InvalidParameterError):
            FiniteSupportDistribution(dom, [-0.1, 1.1])
        with pytest.raises(InvalidParameterError):
            FiniteSupportDistribution(PointSet([]), [])

    def test_missing_mass_examples(self):
        dom = enumerated_domain(2)
        u = uniform_finite(dom)
        points = row_points(dom.rows, dom.n)
        assert missing_mass(u, points[:1]) == 0.5
        assert missing_mass(u, points) == 0.0
        d3 = FiniteSupportDistribution(enumerated_domain(3), [0.7, 0.2, 0.1])
        observed = [Point.from_string("00")]
        direct = 0.2 + 0.1  # direct-summation oracle
        assert missing_mass(d3, observed) == pytest.approx(direct, abs=1e-12)

    def test_missing_plus_covered_is_total_exactly(self):
        d3 = FiniteSupportDistribution(enumerated_domain(3), [0.7, 0.2, 0.1])
        missing = missing_mass_fraction(d3, [1])
        covered = Fraction(float(d3.probs[1]))
        total = sum((Fraction(float(p)) for p in d3.probs), Fraction(0))
        assert missing + covered == total

    def test_missing_mass_takes_support_indices_in_any_order(self):
        d3 = FiniteSupportDistribution(enumerated_domain(3), [0.7, 0.2, 0.1])
        assert missing_mass_fraction(d3, [2, 0, 2]) == Fraction(0.2)
        assert missing_mass_fraction(d3, np.array([1, 1])) == Fraction(0.7) + Fraction(0.1)
        assert missing_mass_fraction(d3, []) == d3.exact_mass(range(3))

    @pytest.mark.parametrize("seen", [[3], [0, -1], ["point"]])
    def test_missing_mass_refuses_what_is_no_support_index(self, seen):
        d3 = FiniteSupportDistribution(enumerated_domain(3), [0.7, 0.2, 0.1])
        # A point, as an older caller passed, would otherwise count as unseen.
        seen = [Point.from_string("00") if u == "point" else u for u in seen]
        with pytest.raises(InvalidParameterError, match="support indices in 0..2"):
            missing_mass_fraction(d3, seen)

    def test_mass_adds_left_to_right(self):
        u = uniform_finite(enumerated_domain(10))
        # Plain float addition of ten 0.1s; compensated summation gives 1.0.
        assert u.mass(range(10)) == 0.9999999999999999
        assert u.mass([]) == 0.0
        assert u.exact_mass(range(10)) == 10 * Fraction(0.1)

    def test_mass_follows_the_order_given(self):
        d3 = FiniteSupportDistribution(enumerated_domain(3), [0.7, 0.2, 0.1])
        assert d3.mass([0, 1, 2]) == (0.7 + 0.2) + 0.1
        assert d3.mass([2, 1, 0]) == (0.1 + 0.2) + 0.7
        assert d3.mass([0, 1, 2]) != d3.mass([2, 1, 0])
        assert d3.exact_mass([2, 0]) == Fraction(0.1) + Fraction(0.7)

    def test_observed_points_outside_support_ignored(self):
        dom = enumerated_domain(2)
        u = uniform_finite(dom)
        stranger = Point.from_string("11")
        assert missing_mass(u, [stranger]) == 1.0

    def test_geometric_preset_sums_to_exactly_one(self):
        for d in (2, 5, 12):
            g = geometric_finite(enumerated_domain(d))
            assert float(np.sum(g.probs)) == 1.0
            assert g.probs[0] == 0.5 or d == 1


NON_DYADIC_PROBS = ([0.7, 0.2, 0.1], [0.3, 0.1, 0.1, 0.25, 0.25], [1.0 / 7.0] * 7)


@given(st.sampled_from(NON_DYADIC_PROBS), st.data())
@settings(max_examples=60, deadline=None)
def test_missing_mass_fraction_matches_reference_sum(probs, data):
    dist = FiniteSupportDistribution(enumerated_domain(len(probs)), probs)
    seen = data.draw(st.lists(st.integers(0, len(probs) - 1), max_size=2 * len(probs)))
    reference = sum(
        (Fraction(float(p)) for t, p in enumerate(dist.probs) if t not in seen), Fraction(0)
    )
    assert missing_mass_fraction(dist, seen) == reference


def test_distribution_json_roundtrip():
    d = make_pne(6, 0.1, 2)
    r = distribution_from_json_dict(d.to_json_dict())
    assert r == d and np.array_equal(r.marginals, d.marginals)
    fam = PneFamily(6, 0.1)
    r2 = distribution_from_json_dict(fam.to_json_dict())
    assert r2 == fam
    p = ProductDistribution(np.array([0.2, 0.9]))
    r3 = distribution_from_json_dict(p.to_json_dict())
    assert np.array_equal(r3.marginals, p.marginals)
    f = geometric_finite(enumerated_domain(4))
    r4 = distribution_from_json_dict(f.to_json_dict())
    assert r4.support == f.support and np.array_equal(r4.probs, f.probs)


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
@settings(max_examples=50)
def test_mix64_is_injective_on_samples(a, b):
    if a != b:
        assert mix64(a) != mix64(b)


def _pne_member(n, eps, i):
    if n >= 2:
        return make_pne(n, eps, i)
    # The family needs n >= 2; a one-coordinate member is built directly.
    return PneMember(1, eps, 1)


@given(
    st.sampled_from([1, 16, 63, 64, 65, 4096]),
    st.integers(0, 12),
    st.sampled_from([0.01, 0.1, 0.2, 0.3, 0.49]),
    st.data(),
    st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_pne_scalar_eps_path_matches_vector_compare(n, m, eps, data, seed):
    i = data.draw(st.sampled_from(sorted({1, n, (n + 1) // 2})))
    dist = _pne_member(n, eps, i)
    # The reference: every coordinate compared against its own marginal.
    u = RngSeed(seed).generator(0).random((m, n))
    reference = pack_bit_rows(u < dist.marginals[None, :])
    words = sample_bit_matrix(dist, m, RngSeed(seed).generator(0))
    assert words.dtype == reference.dtype and words.shape == reference.shape
    assert np.array_equal(words, reference)
