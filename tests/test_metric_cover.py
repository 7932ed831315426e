import itertools
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from gaplab.cli import main
from gaplab.concepts import (
    PointSet,
    ProjectionClass,
    TableClass,
    all_functions_class,
    enumerated_domain,
)
from gaplab.distributions import (
    FiniteSupportDistribution,
    ProductDistribution,
    RngSeed,
    geometric_finite,
    make_pne,
    uniform_finite,
)
from gaplab.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    OracleUnavailableError,
    PointNotInDomainError,
)
from gaplab.metric_cover import (
    EstimateWithCI,
    benedek_itai_m,
    corollary_m,
    disagreement_enumerate,
    disagreement_exact_projections,
    dudley_cover_bound,
    greedy_packing_cover,
    hoeffding_radius,
    oracle_positions,
    pne_small_cover,
    sauer_bound,
    sauer_estimate,
)
from reference import (
    disagreement_mc,
    exact_distance_fn,
    greedy_cover_scan,
    kl_bernoulli,
    kl_lower_bound_check,
)


class TestHoeffding:
    def test_radius_formula(self):
        r = hoeffding_radius(10_000, 0.01)
        assert r == pytest.approx(math.sqrt(math.log(200.0) / 20_000.0), rel=1e-15)
        assert r == pytest.approx(0.016276, abs=1e-6)

    @given(st.integers(1, 10**6), st.floats(1e-6, 0.999))
    @settings(max_examples=50)
    def test_estimate_invariant(self, trials, gamma):
        e = EstimateWithCI.from_count(0, trials, gamma)
        assert e.radius == math.sqrt(math.log(2.0 / gamma) / (2.0 * trials))

    def test_ci_clipping(self):
        e = EstimateWithCI.from_count(0, 100, 0.05)
        assert e.lower == 0.0
        e2 = EstimateWithCI.from_count(100, 100, 0.05)
        assert e2.upper == 1.0


class TestProjectionsDistance:
    def test_examples(self):
        d = make_pne(10, 0.01, 1)
        assert disagreement_exact_projections(d, 2, 3) == pytest.approx(0.0198, abs=1e-12)
        assert disagreement_exact_projections(d, 1, 5) == pytest.approx(0.5, abs=1e-12)
        assert disagreement_exact_projections(d, 4, 4) == 0.0

    def test_pseudo_metric_axioms_exhaustive(self):
        rng = np.random.default_rng(1)
        dist = ProductDistribution(rng.random(8))
        idx = range(1, 9)
        for a, b in itertools.product(idx, idx):
            dab = disagreement_exact_projections(dist, a, b)
            assert dab >= -1e-15
            assert dab == pytest.approx(disagreement_exact_projections(dist, b, a), abs=1e-15)
        for a, b, c in itertools.product(idx, idx, idx):
            ab = disagreement_exact_projections(dist, a, b)
            bc = disagreement_exact_projections(dist, b, c)
            ac = disagreement_exact_projections(dist, a, c)
            assert ac <= ab + bc + 1e-12

    def test_matches_brute_force_enumeration(self):
        dist = make_pne(6, 0.15, 3)
        from reference import hypercube_points, point_prob

        for a, b in [(1, 2), (3, 5), (2, 6)]:
            brute = sum(
                point_prob(dist, x)
                for x in hypercube_points(6)
                if x.bit(a) != x.bit(b)
            )
            assert disagreement_exact_projections(dist, a, b) == pytest.approx(brute, abs=1e-12)


class TestTableDistance:
    def _cls_dist(self):
        dom = enumerated_domain(2)
        cls = all_functions_class(dom)
        return cls, uniform_finite(dom)

    def test_identity_and_complement(self):
        cls, dist = self._cls_dist()
        a = cls.concept(cls.table_from_string("10") + 1)
        nota = cls.concept(cls.table_from_string("01") + 1)
        pos = oracle_positions(cls, dist)
        assert disagreement_enumerate(cls, dist, a, a, pos) == 0.0
        assert disagreement_enumerate(cls, dist, a, nota, pos) == 1.0

    def test_uniform_two_point_example(self):
        cls, dist = self._cls_dist()
        a = cls.concept(cls.table_from_string("10") + 1)
        b = cls.concept(cls.table_from_string("11") + 1)
        pos = oracle_positions(cls, dist)
        assert disagreement_enumerate(cls, dist, a, b, pos) == pytest.approx(0.5, abs=1e-15)

    def test_axioms_exhaustive_on_64_concepts(self):
        dom = enumerated_domain(6)
        cls = all_functions_class(dom)
        rng = np.random.default_rng(2)
        probs = rng.random(6)
        probs /= probs.sum()
        probs[-1] = 1.0 - probs[:-1].sum()
        dist = FiniteSupportDistribution(dom, probs)
        ids = [cls.concept(i) for i in range(1, 65)]
        pos = oracle_positions(cls, dist)
        d = {}
        for a, b in itertools.product(ids, ids):
            d[(a, b)] = disagreement_enumerate(cls, dist, a, b, pos)
        for a, b in itertools.product(ids, ids):
            assert d[(a, b)] == pytest.approx(d[(b, a)], abs=1e-15)
            assert d[(a, a)] == 0.0
        for a, b, c in itertools.islice(itertools.product(ids, ids, ids), 0, None, 7):
            assert d[(a, c)] <= d[(a, b)] + d[(b, c)] + 1e-12


class TestDisagreementMC:
    def test_identical_concepts_estimate_zero(self):
        cls = ProjectionClass(16)
        dist = make_pne(16, 0.1, 2)
        e = disagreement_mc(cls, dist, cls.concept(5), cls.concept(5), 500, 0.05, RngSeed(1))
        assert e.estimate == 0.0
        assert e.radius == hoeffding_radius(500, 0.05)

    def test_matches_closed_form(self):
        cls = ProjectionClass(64)
        dist = make_pne(64, 0.1, 1)
        e = disagreement_mc(cls, dist, cls.concept(2), cls.concept(3), 100_000, 0.01, RngSeed(7))
        assert abs(e.estimate - 0.18) <= e.radius

    def test_battery_coverage(self):
        rng = np.random.default_rng(3)
        hits = 0
        for case in range(100):
            n = int(rng.integers(4, 64))
            eps = float(rng.uniform(0.02, 0.45))
            i = int(rng.integers(1, n + 1))
            a, b = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
            cls = ProjectionClass(n)
            dist = make_pne(n, eps, i)
            est = disagreement_mc(
                cls, dist, cls.concept(a), cls.concept(b), 2000, 0.05, RngSeed(100 + case)
            )
            truth = disagreement_exact_projections(dist, a, b)
            if abs(est.estimate - truth) <= est.radius:
                hits += 1
        assert hits >= 95

    def test_table_class_sampling(self):
        dom = enumerated_domain(3)
        cls = all_functions_class(dom)
        dist = uniform_finite(dom)
        a = cls.concept(cls.table_from_string("100") + 1)
        b = cls.concept(cls.table_from_string("110") + 1)
        est = disagreement_mc(cls, dist, a, b, 20_000, 0.01, RngSeed(5))
        truth = disagreement_enumerate(cls, dist, a, b, oracle_positions(cls, dist))
        assert abs(est.estimate - truth) <= est.radius


class TestGreedyCover:
    @pytest.mark.parametrize("n", [4, 64, 1024])
    @pytest.mark.parametrize("eps", [0.01, 0.2])
    @pytest.mark.parametrize("i", [1, 2])
    def test_small_cover_members(self, n, eps, i):
        cls = ProjectionClass(n)
        dist = make_pne(n, eps, i)
        cover = greedy_packing_cover(cls, dist, 2.0 * eps)
        assert cover.size == 2
        expected_second = i if i >= 2 else 2
        assert cover.members == (1, expected_second)
        assert cover.certificate <= 2.0 * eps

    def test_level_one_single_member(self):
        cls = ProjectionClass(32)
        cover = greedy_packing_cover(cls, make_pne(32, 0.1, 4), 1.0)
        assert cover.size == 1

    def test_level_zero_keeps_distinct_concepts(self):
        dom = enumerated_domain(3)
        cls = TableClass(dom, [0b000, 0b001, 0b010, 0b111])
        dist = uniform_finite(dom)
        cover = greedy_packing_cover(cls, dist, 0.0)
        assert cover.size == 4

    def test_packing_and_cover_properties_exact(self):
        rng = np.random.default_rng(11)
        dom = enumerated_domain(4)
        tables = sorted(set(int(v) for v in rng.integers(0, 16, size=10)))
        cls = TableClass(dom, tables)
        dist = uniform_finite(dom)
        fn = exact_distance_fn(cls, dist)
        for eps in (0.0, 0.2, 0.4, 0.7):
            cover = greedy_packing_cover(cls, dist, eps)
            members = cover.members
            for a, b in itertools.combinations(members, 2):
                assert fn(a, b) > eps
            for i in range(1, cls.num_concepts + 1):
                assert min(fn(i, m) for m in members) <= eps + 1e-15
            assert cover.certificate <= eps + 1e-15

    def test_cover_size_monotone_in_level(self):
        cls = ProjectionClass(128)
        dist = make_pne(128, 0.12, 9)
        sizes = [
            greedy_packing_cover(cls, dist, lvl).size
            for lvl in (0.05, 0.1, 0.2, 0.3, 0.6)
        ]
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("n", [2, 3, 16, 100])
    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.3, 0.45, 0.5 - 3 * 2.0**-54])
    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize(
        "level", [None, 0.0, "d_off", "d_off-", "d_off+", "d_half", "d_half-", "d_half+", 1.0]
    )
    def test_fast_path_matches_greedy(self, n, eps, i, level):
        # d_off and d_half are the scan's distances between two Bernoulli(eps)
        # coordinates and from the fair coin; -/+ are their float neighbours.
        # eps = 1/2 - 3 * 2^-54 rounds d_off above d_half.
        d_off = eps + eps - 2.0 * eps * eps
        d_half = 0.5 + eps - 2.0 * 0.5 * eps
        if isinstance(level, str):
            base = d_off if level.startswith("d_off") else d_half
            level = {"-": math.nextafter(base, 0.0), "+": math.nextafter(base, 1.0)}.get(
                level[-1], base)
        dist = make_pne(n, eps, i)
        greedy = greedy_packing_cover(ProjectionClass(n), dist,
                                      2.0 * eps if level is None else level)
        fast = pne_small_cover(dist, level)
        assert fast.members == greedy.members
        assert fast.level == greedy.level
        assert fast.certificate == greedy.certificate

    def test_custom_distance_oracle(self):
        # The vectorised scan against the reference scan over the exact oracle.
        dom = enumerated_domain(4)
        cases = ((ProjectionClass(6), make_pne(6, 0.1, 2)),
                 (TableClass(dom, [0, 3, 5, 6, 9, 12, 15]), geometric_finite(dom)))
        for cls, dist in cases:
            for eps in (0.0, 0.1, 0.2, 0.3):
                want = greedy_cover_scan(cls, exact_distance_fn(cls, dist), eps)
                got = greedy_packing_cover(cls, dist, eps)
                assert got.members == want.members
                assert got.certificate == pytest.approx(want.certificate, abs=1e-12)

    def test_oracle_unavailable(self):
        for build in (exact_distance_fn, lambda c, d: greedy_packing_cover(c, d, 0.1)):
            with pytest.raises(OracleUnavailableError,
                               match="ProjectionClass under FiniteSupportDistribution"):
                build(ProjectionClass(4), uniform_finite(enumerated_domain(2)))

    def test_support_point_outside_the_table_domain(self):
        cls = all_functions_class(PointSet(["00", "10", "01"]))
        dist = uniform_finite(PointSet(["10", "01", "11"]))
        for build in (exact_distance_fn, lambda c, d: greedy_packing_cover(c, d, 0.1)):
            with pytest.raises(PointNotInDomainError, match="point '11' is not in"):
                build(cls, dist)

    @pytest.mark.parametrize(
        "dist", [make_pne(16, 0.05, 3), ProductDistribution(np.full(16, 0.5))])
    def test_class_and_law_of_different_n(self, dist):
        for build in (exact_distance_fn, lambda c, d: greedy_packing_cover(c, d, 0.1)):
            with pytest.raises(DimensionMismatchError, match="class has n=8"):
                build(ProjectionClass(8), dist)


class TestFormulas:
    def test_sauer_examples(self):
        assert sauer_bound(10, 3) == 176
        assert sauer_bound(10, 0) == 1
        assert sauer_estimate(10, 3) == pytest.approx((10 * math.e / 3) ** 3, rel=1e-12)
        assert sauer_bound(10, 3) <= sauer_estimate(10, 3)

    def test_sauer_bound_saturates(self):
        assert sauer_bound(5, 9) == 32

    @pytest.mark.parametrize("k, d", [(20000, 10000), (100000000, 50000000), (14300, 14300),
                                      (2**63 - 1, 300)])
    def test_sauer_bound_refuses_a_sum_past_the_digit_limit(self, k, d):
        with pytest.raises(InvalidParameterError, match=f"K={k}, d={d} may pass 4300 digits"):
            sauer_bound(k, d)

    def test_sauer_bound_below_the_digit_limit_is_exact(self):
        assert len(str(sauer_bound(14000, 1000))) == 1563
        assert sauer_bound(4000, 4000) == 2**4000
        k = 2**63 - 1
        assert sauer_bound(k, 2) == 1 + k + k * (k - 1) // 2

    def test_sauer_bound_is_the_sum_of_binomials(self):
        for k, d in [(3000, 1500), (3000, 2999), (777, 5), (12, 12)]:
            assert sauer_bound(k, d) == sum(math.comb(k, i) for i in range(d + 1))

    def test_bounds_at_the_largest_full_sum_is_quick(self, tmp_path):
        # 2^14270 has 4,296 digits; one math.comb per term took 34 s.
        out = tmp_path / "bounds.json"
        start = time.perf_counter()
        res = CliRunner().invoke(main, ["--out", str(out), "bounds", "--k", "14270",
                                        "--d", "14270"])
        elapsed = time.perf_counter() - start
        assert res.exit_code == 0, res.output
        assert json.loads(out.read_text())["sauer_bound"] == 2**14270
        assert elapsed < 2.0

    def test_sauer_estimate_preconditions(self):
        with pytest.raises(InvalidParameterError):
            sauer_estimate(3, 0)
        with pytest.raises(InvalidParameterError):
            sauer_estimate(3, 4)

    def test_sauer_grid(self):
        for k in range(1, 61):
            for d in range(1, min(k, 20) + 1):
                assert sauer_bound(k, d) <= sauer_estimate(k, d)

    def test_dudley_examples(self):
        assert dudley_cover_bound(0.5, 0).value == 1.0
        b = dudley_cover_bound(1.0, 1)
        expected = (4 * math.e) ** (1.0 / (1.0 - 1.0 / math.e))
        assert b.value == pytest.approx(expected, rel=1e-12)
        assert b.value == pytest.approx(43.6, abs=0.1)
        assert b.log_value == pytest.approx(math.log(expected), rel=1e-12)

    def test_dudley_log_survives_overflow(self):
        b = dudley_cover_bound(1e-6, 4000)
        assert math.isinf(b.value)
        assert math.isfinite(b.log_value)

    @pytest.mark.parametrize("n", [4, 64, 1024])
    def test_greedy_cover_within_dudley_bound(self, n):
        d = n.bit_length() - 1
        for eps in (0.05, 0.2):
            cover = greedy_packing_cover(ProjectionClass(n), make_pne(n, 0.1, 2), eps)
            bound = dudley_cover_bound(eps, d)
            assert cover.size <= bound.value

    def test_benedek_itai_examples(self):
        assert benedek_itai_m(2, 0.2, 0.1) == 719
        assert benedek_itai_m(1, 0.2, 0.5) == math.ceil(48 * math.log(2) / 0.2)

    def test_corollary_example(self):
        assert corollary_m(0.05, 0.1) == 719

    def test_parameter_ranges(self):
        with pytest.raises(InvalidParameterError):
            benedek_itai_m(0, 0.2, 0.1)
        with pytest.raises(InvalidParameterError):
            benedek_itai_m(2, 1.5, 0.1)
        with pytest.raises(InvalidParameterError):
            dudley_cover_bound(0.0, 2)
        with pytest.raises(InvalidParameterError):
            corollary_m(0.6, 0.1)


class TestKL:
    def test_examples(self):
        assert kl_bernoulli(0.3, 0.3) == 0.0
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert kl_bernoulli(0.5, 0.25) == pytest.approx(expected, rel=1e-12)
        assert kl_bernoulli(0.5, 0.25) == pytest.approx(0.1438, abs=1e-4)

    def test_infinite_cases(self):
        assert math.isinf(kl_bernoulli(0.5, 0.0))
        assert math.isinf(kl_bernoulli(0.5, 1.0))
        assert kl_bernoulli(0.0, 0.0) == 0.0
        assert kl_bernoulli(1.0, 1.0) == 0.0

    def test_lower_bound_on_grid(self):
        grid = np.linspace(0.005, 0.995, 100)
        assert all(kl_lower_bound_check(x, y) for x in grid for y in grid)

    def test_range_validation(self):
        with pytest.raises(InvalidParameterError):
            kl_bernoulli(-0.1, 0.5)
