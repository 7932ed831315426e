import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaplab.concepts import (
    PointSet,
    ProjectionClass,
    all_functions_class,
    enumerated_domain,
    full_hypercube,
    full_mask_words,
    pack_bit_rows,
    packed_column,
    row_keys,
)
from gaplab.distributions import (
    RngSeed,
    make_pne,
    missing_mass_fraction,
    sample_bit_matrix,
    uniform_finite,
)
from gaplab.errors import DimensionMismatchError, InconsistentSampleError, InvalidParameterError
from gaplab.learners import (
    LabeledSample,
    consistent_memorizer,
    cover_learner,
    erm,
    mistake_counts,
    posterior_mean_label,
    posterior_threshold,
)
from gaplab.metric_cover import CoverResult, pne_small_cover
from reference import (
    Point,
    PosteriorState,
    bayes_bit_predictor,
    bayes_posterior_predict,
    empirical_error,
    empty_sample,
    k_set_indices,
    point_prob,
    posterior_over_index,
    posterior_state,
)


def sample_from(points, labels):
    """The sample of 0/1 strings `points`, repeats allowed, labelled by `labels`."""
    bits = np.array([[int(ch) for ch in s] for s in points], dtype=np.uint8)
    return LabeledSample(pack_bit_rows(bits), labels, len(points[0]))


def realizable_sample(n, i_target, m, seed, eps=0.1, i_dist=None):
    dist = make_pne(n, eps, i_dist if i_dist is not None else i_target)
    words = sample_bit_matrix(dist, m, RngSeed(seed).generator(0))
    return LabeledSample(words, packed_column(words, i_target), n)


def reference_column_match_mask(sample):
    """Per-row loop: AND each row, or its complement when the label is 0."""
    acc = full_mask_words(sample.n).copy()
    for r in range(sample.m):
        row = sample.words[r]
        acc &= row if sample.labels[r] else ~row
    return acc


@given(st.sampled_from([1, 63, 64, 65, 130]), st.integers(0, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_column_match_mask_matches_row_loop(n, m, data):
    bits = np.array(
        data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                           min_size=m, max_size=m)),
        dtype=np.uint8,
    ).reshape(m, n)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)),
                      dtype=np.uint8)
    if m and data.draw(st.booleans()):
        labels = bits[:, data.draw(st.integers(0, n - 1))].copy()  # a realizable sample
    sample = LabeledSample(pack_bit_rows(bits), labels, n)
    got = sample.column_match_mask()
    assert got.dtype == np.uint64
    assert np.array_equal(got, reference_column_match_mask(sample))
    if m == 0:
        assert np.array_equal(got, full_mask_words(n))


class TestLabeledSample:
    def test_column_extraction(self):
        s = sample_from(["101", "011"], [1, 0])
        assert list(packed_column(s.words, 1)) == [1, 0]
        assert list(packed_column(s.words, 3)) == [1, 1]

    @pytest.mark.parametrize("indices", [[], [2], [0, 2, 0, 1]])
    def test_from_points_takes_the_rows_at_the_drawn_indices(self, indices):
        points = PointSet(["110", "011", "101"])
        labels = [u % 2 for u in indices]
        s = LabeledSample.from_points(points, indices, labels)
        assert (s.n, s.m) == (3, len(indices))
        assert s.words.tolist() == points.rows[indices].tolist()
        assert s.labels.tolist() == labels

    def test_from_points_needs_a_label_per_index(self):
        with pytest.raises(InvalidParameterError):
            LabeledSample.from_points(PointSet(["0", "1"]), [0, 1], [1])

    def test_k_set_on_empty_sample_is_everything(self):
        s = empty_sample(5)
        assert list(k_set_indices(s)) == [1, 2, 3, 4, 5]

    def test_k_set_matches_definition(self):
        s = sample_from(["1100", "1010"], [1, 1])
        # columns equal to (1,1): coordinate 1 only
        assert list(k_set_indices(s)) == [1]


class TestEmpiricalError:
    def test_zero_on_own_labels(self):
        cls = ProjectionClass(4)
        s = realizable_sample(4, 2, 10, seed=1)
        assert empirical_error(cls, cls.concept(2), s) == 0

    def test_one_on_flipped_labels(self):
        cls = ProjectionClass(4)
        s = realizable_sample(4, 2, 10, seed=2)
        flipped = LabeledSample(s.words, 1 - s.labels, 4)
        assert empirical_error(cls, cls.concept(2), flipped) == 1

    def test_half_example(self):
        cls = ProjectionClass(4)
        s = sample_from(["0100", "1000"], [1, 1])
        assert empirical_error(cls, cls.concept(2), s) == Fraction(1, 2)

    def test_empty_sample(self):
        cls = ProjectionClass(3)
        assert empirical_error(cls, cls.concept(1), empty_sample(3)) == 0


class TestErm:
    def test_realizable_returns_zero_error(self):
        cls = ProjectionClass(32)
        for seed in range(5):
            s = realizable_sample(32, 7, 12, seed=seed)
            chosen = erm(cls, s)
            assert empirical_error(cls, chosen, s) == 0

    def test_empty_sample_tie_break(self):
        cls = ProjectionClass(5)
        assert erm(cls, empty_sample(5)) == 1

    def test_example_lowest_consistent(self):
        cls = ProjectionClass(3)
        s = sample_from(["101"], [1])
        assert erm(cls, s) == 1

    def test_non_realizable_matches_brute_force(self):
        cls = ProjectionClass(9)
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = int(rng.integers(1, 8))
            words = sample_bit_matrix(make_pne(9, 0.3, 4), m, RngSeed(int(rng.integers(1e6))).generator(0))
            labels = rng.integers(0, 2, m).astype(np.uint8)
            s = LabeledSample(words, labels, 9)
            chosen = erm(cls, s)
            errors = [empirical_error(cls, cls.concept(i), s) for i in range(1, 10)]
            assert list(mistake_counts(cls, s)) == [e * m for e in errors]
            assert chosen == int(np.argmin(errors)) + 1

    def test_table_class_erm(self):
        dom = enumerated_domain(3)
        cls = all_functions_class(dom)
        s = LabeledSample.from_points(dom, [0, 2], [1, 0])
        chosen = erm(cls, s)
        assert empirical_error(cls, chosen, s) == 0
        errors = [empirical_error(cls, i, s) for i in range(1, cls.num_concepts + 1)]
        assert list(mistake_counts(cls, s)) == [e * s.m for e in errors]
        # lowest index among zero-error tables: bit0 = 1, bit2 = 0, bit1 free -> mask 0b001
        assert chosen == 0b001 + 1

    def test_deterministic(self):
        cls = ProjectionClass(16)
        s = realizable_sample(16, 3, 6, seed=9)
        assert erm(cls, s) == erm(cls, s)

    def test_empty_class_rejected(self):
        dom = enumerated_domain(2)
        from gaplab.concepts import TableClass

        empty = TableClass(dom, [])
        with pytest.raises(InvalidParameterError):
            erm(empty, empty_sample(1))


class TestCoverLearner:
    def test_empty_sample_returns_first_member(self):
        cls = ProjectionClass(8)
        cover = pne_small_cover(make_pne(8, 0.1, 5))
        chosen = cover_learner(cls, cover, empty_sample(8))
        assert chosen == 1

    def test_target_in_cover_wins(self):
        cls = ProjectionClass(8)
        cover = pne_small_cover(make_pne(8, 0.1, 5))  # members 1 and 5
        s = sample_from(["00001000"], [1])  # row where c_5 = 1 but c_1 = 0
        assert cover_learner(cls, cover, s) == 5

    def test_empty_cover_rejected(self):
        cls = ProjectionClass(4)
        with pytest.raises(InvalidParameterError):
            cover_learner(cls, CoverResult((), 0.1), empty_sample(4))

    def test_returns_member_close_to_target(self):
        # Target outside the cover: the returned member sits within 2 eps.
        n, eps, i = 64, 0.05, 3
        cls = ProjectionClass(n)
        dist = make_pne(n, eps, i)
        cover = pne_small_cover(dist)
        target = 17
        words = sample_bit_matrix(dist, 1000, RngSeed(12).generator(0))
        s = LabeledSample(words, packed_column(words, target), n)
        chosen = cover_learner(cls, cover, s)
        from gaplab.metric_cover import disagreement_exact_projections

        assert disagreement_exact_projections(dist, chosen, target) <= 2 * eps


class TestPosterior:
    def test_empty_sample_uniform_over_all(self):
        post = posterior_over_index(empty_sample(4))
        assert post == [(1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25)]

    def test_unique_consistent_column(self):
        s = sample_from(["1100", "1010"], [1, 1])
        assert posterior_over_index(s) == [(1, 1.0)]

    def test_two_column_example_against_bayes_oracle(self):
        n, eps = 4, 0.2
        s = sample_from(["1100"], [1])
        post = dict(posterior_over_index(s))
        assert post == {1: 0.5, 2: 0.5}
        # brute-force Bayes over (i, x): Pr[I=i | X, Y] with uniform I prior
        weights = {}
        x = Point.from_string("1100")
        for i in range(1, n + 1):
            consistent = x.bit(i) == 1
            weights[i] = point_prob(make_pne(n, eps, i), x) if consistent else 0.0
        total = sum(weights.values())
        for i in range(1, n + 1):
            assert post.get(i, 0.0) == pytest.approx(weights[i] / total, abs=1e-12)

    def test_inconsistent_sample_raises(self):
        s = sample_from(["00"], [1])
        with pytest.raises(InconsistentSampleError):
            posterior_over_index(s)
        with pytest.raises(InconsistentSampleError):
            posterior_state(s, 0.1)

    @given(st.integers(2, 40), st.integers(0, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_uniformity_and_true_index_membership(self, n, m, data):
        i = data.draw(st.integers(1, n))
        seed = data.draw(st.integers(0, 10**6))
        s = realizable_sample(n, i, m, seed=seed)
        post = posterior_over_index(s)
        masses = [p for _, p in post]
        assert all(abs(p - masses[0]) < 1e-15 for p in masses)
        assert sum(masses) == pytest.approx(1.0, abs=1e-12)
        assert i in {idx for idx, _ in post}


class TestBayesPredict:
    def test_all_candidates_fire(self):
        state = PosteriorState((1, 2, 3), 0.2, 1, 4)
        z = Point.from_string("1110")
        assert bayes_posterior_predict(state, z) == 1

    def test_no_candidate_fires(self):
        state = PosteriorState((1, 2, 3), 0.2, 1, 4)
        z = Point.from_string("0001")
        assert bayes_posterior_predict(state, z) == 0

    def test_k2_s1_quarter(self):
        assert posterior_mean_label(2, 1, 0.25) == pytest.approx(0.75, abs=1e-15)
        state = PosteriorState((1, 3), 0.25, 1, 4)
        z = Point.from_string("1000")
        assert bayes_posterior_predict(state, z) == 1

    def test_mean_against_exhaustive_bayes(self):
        # E[c_I(Z) | X, Y, Z] computed from first principles with point_prob.
        n, eps = 6, 0.2
        s = sample_from(["110100"], [1])
        k = list(k_set_indices(s))
        assert k == [1, 2, 4]
        for z_str in ("101010", "010001", "110110", "000000"):
            z = Point.from_string(z_str)
            num = 0.0
            den = 0.0
            for i in k:
                w = point_prob(make_pne(n, eps, i), z)
                num += w * z.bit(i)
                den += w
            expected = num / den
            got = posterior_mean_label(len(k), sum(z.bit(i) for i in k), eps)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_depends_only_on_k_and_s(self):
        z1 = Point.from_string("110000")
        z2 = Point.from_string("000011")
        s1 = PosteriorState((1, 2, 3), 0.1, 2, 6)
        s2 = PosteriorState((4, 5, 6), 0.1, 2, 6)
        # S = 2 out of K = 3 in both arrangements
        assert bayes_posterior_predict(s1, z1) == bayes_posterior_predict(s2, z2)

    @given(st.integers(1, 60), st.floats(0.01, 0.49))
    @settings(max_examples=60)
    def test_threshold_matches_linear_scan(self, k, eps):
        thr = posterior_threshold(k, eps)
        scan = next(
            (s for s in range(1, k + 1) if posterior_mean_label(k, s, eps) >= 0.5),
            k + 1,
        )
        assert thr == scan

    def test_state_validation(self):
        with pytest.raises(InconsistentSampleError):
            PosteriorState((), 0.1, 1, 4)
        with pytest.raises(InvalidParameterError):
            PosteriorState((2, 1), 0.1, 1, 4)
        with pytest.raises(InvalidParameterError):
            PosteriorState((1,), 0.6, 1, 4)


class TestMemorizer:
    def test_contract(self):
        s = sample_from(["01", "10"], [1, 0])
        h = consistent_memorizer(s, default=0)
        points = PointSet(["01", "10", "11"])
        assert h.predict(points) == [1, 0, 0]
        h1 = consistent_memorizer(s, default=1)
        assert h1.predict(points) == [1, 0, 1]
        with pytest.raises(DimensionMismatchError):
            h.predict(PointSet(["011"]))

    def test_inconsistent_rejected(self):
        s = sample_from(["01", "01"], [1, 0])
        with pytest.raises(InconsistentSampleError):
            consistent_memorizer(s)

    def test_inconsistent_after_repeats_names_the_point(self):
        s = sample_from(["011", "100", "011", "100", "011"], [1, 0, 1, 0, 0])
        with pytest.raises(InconsistentSampleError, match="point '011'"):
            consistent_memorizer(s)

    def test_one_entry_per_distinct_row(self):
        rows = ["0110", "1000", "0110", "0110", "1111", "1000"]
        labels = [1, 0, 1, 1, 0, 0]
        h = consistent_memorizer(sample_from(rows, labels))
        keys = list(PointSet(["0110", "1000", "1111"]).keys())
        assert h.mapping == dict(zip(keys, [1, 0, 0]))
        assert list(h.mapping) == keys
        assert all(type(v) is int for v in h.mapping.values())

    def test_error_bounded_by_missing_mass_exactly(self):
        dom = enumerated_domain(8)
        dist = uniform_finite(dom)
        cls = all_functions_class(dom)
        rng = np.random.default_rng(17)
        prob_fracs = [Fraction(float(p)) for p in dist.probs]
        for _ in range(50):
            target = int(rng.integers(0, 256))
            m = int(rng.integers(0, 10))
            idx = rng.integers(0, 8, size=m)
            positions = cls.domain.find(row_keys(dom.rows[idx], dom.n))
            s = LabeledSample.from_points(dom, idx, [(target >> u) & 1 for u in positions])
            h = consistent_memorizer(s, 0)
            d_frac = sum(
                (prob_fracs[u] for u, y in enumerate(h.predict(dom))
                 if y != ((target >> u) & 1)),
                Fraction(0),
            )
            z_frac = missing_mass_fraction(dist, idx)
            assert d_frac <= z_frac


class TestBayesBitPredictor:
    def test_independent_fair_coin(self):
        joint = np.full((2, 2), 0.25)
        _, err = bayes_bit_predictor(joint)
        assert err == pytest.approx(0.5, abs=1e-15)

    def test_deterministic_function(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        preds, err = bayes_bit_predictor(joint)
        assert err == 0.0
        assert list(preds) == [0, 1]

    def test_2x2_example_with_exhaustive_oracle(self):
        joint = np.array([[0.4, 0.1], [0.2, 0.3]])
        preds, err = bayes_bit_predictor(joint)
        assert err == pytest.approx(0.3, abs=1e-15)
        best = min(
            float(joint[np.arange(2), 1 - np.array(f)].sum())
            for f in itertools.product((0, 1), repeat=2)
        )
        assert err == best

    @given(st.integers(1, 10), st.data())
    @settings(max_examples=40)
    def test_equals_exhaustive_minimum(self, u_size, data):
        raw = data.draw(
            st.lists(st.floats(0.0, 1.0), min_size=2 * u_size, max_size=2 * u_size)
        )
        arr = np.array(raw).reshape(u_size, 2)
        if arr.sum() == 0.0:
            arr[0, 0] = 1.0
        arr = arr / arr.sum()
        arr = arr / arr.sum()  # second pass trims the last float ulp
        if abs(arr.sum() - 1.0) > 1e-9:
            return
        _, err = bayes_bit_predictor(arr)
        best = min(
            float(arr[np.arange(u_size), 1 - np.array(f)].sum())
            for f in itertools.product((0, 1), repeat=u_size)
        )
        assert err == best

    def test_malformed_tables(self):
        with pytest.raises(InvalidParameterError):
            bayes_bit_predictor(np.array([[0.5, 0.6]]))
        with pytest.raises(InvalidParameterError):
            bayes_bit_predictor(np.array([[-0.1, 1.1]]))
        with pytest.raises(InvalidParameterError):
            bayes_bit_predictor(np.zeros((0, 2)))
