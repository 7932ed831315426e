import math
import pickle
import sys
import time
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gaplab import concepts, mc_harness, metric_cover
from gaplab.concepts import (
    PointSet,
    ProjectionClass,
    TableClass,
    all_functions_class,
    enumerated_domain,
)
from gaplab.distributions import (
    FiniteSupportDistribution,
    PneFamily,
    ProductDistribution,
    RngSeed,
    geometric_finite,
    make_pne,
    sample_support_indices,
    uniform_finite,
)
from gaplab.errors import (
    InvalidParameterError,
    OracleUnavailableError,
    SearchBracketError,
)
from gaplab.learners import LabeledSample, posterior_threshold
from gaplab.mc_harness import (
    FixedTarget,
    RandomConcept,
    RandomPair,
    TrialConfig,
    config_from_json_dict,
    estimate_failure_prob,
    five_quantiles,
    in_theorem_regime,
    ks_statistics_experiment,
    lower_bound_config,
    lower_bound_experiment,
    lower_bound_m,
    no_gap_configs,
    no_gap_experiment,
    posterior_rule_error,
    run_trial,
    run_trials,
    sample_complexity_search,
    TrialPool,
)
from reference import (PosteriorState, bayes_posterior_predict, full_count_search,
                       hypercube_points, point_prob, reference_table_trial,
                       tail_inequality_check, trial_seed)
from test_golden import DOCUMENTS


def pne_cfg(n, eps, learner, m, eps_acc, trials, seed, target=None, **kw):
    return TrialConfig(
        concept_class=ProjectionClass(n),
        dist=PneFamily(n, eps) if target is None else make_pne(n, eps, kw.pop("i", 1)),
        target=target if target is not None else RandomPair(),
        learner=learner,
        m=m,
        eps_acc=eps_acc,
        trials=trials,
        seed=RngSeed(seed),
        **kw,
    )


class TestRunTrial:
    def test_point_mass_erm_single_example(self):
        dom = enumerated_domain(2)
        dist = FiniteSupportDistribution(dom, [1.0, 0.0])
        cls = all_functions_class(dom)
        cfg = TrialConfig(
            concept_class=cls,
            dist=dist,
            target=FixedTarget(cls.table_from_string("11") + 1),
            learner="erm",
            m=1,
            eps_acc=0.1,
            trials=1,
            seed=RngSeed(0),
        )
        res = run_trial(cfg, 0)
        assert res.error == 0.0 and res.failed == 0

    def test_m0_erm_tie_break_fails(self):
        cfg = pne_cfg(8, 0.1, "erm", 0, 0.3, 1, 0, target=FixedTarget(2), i=1)
        res = run_trial(cfg, 0)
        assert res.error == pytest.approx(0.5, abs=1e-12)
        assert res.failed == 1

    def test_strict_failure_threshold(self):
        cfg = pne_cfg(8, 0.1, "erm", 0, 0.5, 1, 0, target=FixedTarget(2), i=1)
        res = run_trial(cfg, 0)
        assert res.error <= 0.5 and res.failed == 0

    def test_cover_corollary_setting_mostly_succeeds(self):
        m = 719
        cfg = pne_cfg(256, 0.05, "cover", m, 0.2, 200, 99, target=FixedTarget(3), i=3)
        est = estimate_failure_prob(cfg)
        assert est.estimate <= 0.1

    def test_deterministic_per_index(self):
        cfg = pne_cfg(64, 0.1, "bayes-posterior", 2, 1 / 16, 4, 5)
        assert run_trial(cfg, 2) == run_trial(cfg, 2)
        # different indices explore different randomness
        errors = {run_trial(cfg, t).error for t in range(20)}
        assert len(errors) > 1

    def test_cover_is_built_once_per_config(self, monkeypatch):
        # A fixed law's cover is built with the config; a pne member's cover,
        # at any level and under random-pair too, in closed form.
        calls = []
        greedy = metric_cover.greedy_packing_cover
        monkeypatch.setattr(metric_cover, "greedy_packing_cover",
                            lambda *args: calls.append(args) or greedy(*args))
        dom = enumerated_domain(4)
        cfg = TrialConfig(all_functions_class(dom), geometric_finite(dom), RandomConcept(),
                          "cover", 2, 0.2, 300, RngSeed(110), cover_level=0.3)
        estimate_failure_prob(cfg)
        assert len(calls) == 1
        estimate_failure_prob(pne_cfg(16, 0.1, "cover", 4, 0.2, 50, 3, cover_level=0.15))
        estimate_failure_prob(pne_cfg(16, 0.1, "cover", 4, 0.2, 50, 3, target=FixedTarget(2),
                                      i=5, cover_level=0.15))
        assert len(calls) == 1

    def test_random_concept_on_tables(self):
        dom = enumerated_domain(4)
        cls = all_functions_class(dom)
        cfg = TrialConfig(
            concept_class=cls,
            dist=uniform_finite(dom),
            target=RandomConcept(),
            learner="memorizer",
            m=8,
            eps_acc=0.5,
            trials=1,
            seed=RngSeed(1),
        )
        res = run_trial(cfg, 0)
        assert 0.0 <= res.error <= 1.0


@st.composite
def table_configs(draw):
    """A table-class trial config of at most 8 domain points (3-bit strings),
    under a law whose support is listed in another order than the domain,
    with zero masses among its points; ERM, cover or the memorizer."""
    d = draw(st.integers(2, 8))
    domain = draw(st.permutations([format(v, "03b") for v in range(8)]))[:d]
    order = draw(st.permutations(range(d)))[:draw(st.integers(2, d))]
    if order == sorted(order):
        order.reverse()
    weights = draw(st.lists(st.integers(0, 4), min_size=len(order), max_size=len(order)))
    weights[draw(st.integers(0, len(order) - 1))] += 1
    dist = FiniteSupportDistribution(PointSet([domain[k] for k in order]),
                                     [w / sum(weights) for w in weights])
    if draw(st.booleans()):
        cls = all_functions_class(PointSet(domain))
    else:
        cls = TableClass(PointSet(domain), draw(st.lists(st.integers(0, (1 << d) - 1),
                                                         min_size=1, max_size=10)))
    learner = draw(st.sampled_from(["erm", "cover", "memorizer"]))
    target = draw(st.one_of(st.just(RandomConcept()),
                            st.integers(1, cls.num_concepts).map(FixedTarget)))
    keys = ({"cover_level": draw(st.sampled_from([0.1, 0.25, 0.4, 0.6]))}
            if learner == "cover" else
            {"memorizer_default": draw(st.integers(0, 1))} if learner == "memorizer" else {})
    return TrialConfig(cls, dist, target, learner, draw(st.integers(0, 6)),
                       draw(st.sampled_from([0.05, 0.2, 0.4])), 20,
                       RngSeed(draw(st.integers(0, 2**32))), **keys)


@given(table_configs())
@settings(max_examples=150, deadline=None)
def test_a_table_trial_matches_the_reference(cfg):
    for t in range(cfg.trials):
        got = tuple(run_trial(cfg, t))
        assert got == reference_table_trial(cfg, t), f"spec {cfg.to_json_dict()}, trial {t}"


@pytest.mark.parametrize("name", ["learn-table-erm", "learn-table-cover"])
def test_a_table_erm_or_cover_trial_never_looks_a_point_up_by_its_bytes(monkeypatch, name):
    cfg = config_from_json_dict(DOCUMENTS[name])
    want = run_trials(cfg)

    def refuse(*args):
        raise AssertionError("a point was looked up by its bytes")

    monkeypatch.setattr(LabeledSample, "from_points", refuse)
    monkeypatch.setattr(PointSet, "find", refuse)
    monkeypatch.setattr(concepts, "row_keys", refuse)
    got = run_trials(cfg)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_table_trial_holds_no_array_of_draws_by_concepts():
    # 4096 draws against the 65,536 tables of a 16-point domain: a draws x
    # concepts label matrix would be 256 MiB, one concept vector is 512 KiB.
    dom = enumerated_domain(16)
    cls = all_functions_class(dom)
    cfg = TrialConfig(cls, uniform_finite(dom), FixedTarget(12345), "erm", 4096, 0.1, 2,
                      RngSeed(3))
    run_trial(cfg, 0)
    tracemalloc.start()
    try:
        run_trial(cfg, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * cls.num_concepts


@pytest.mark.parametrize("learner", ["erm", "bayes-posterior", "cover"])
def test_random_pair_trial_holds_no_n_vector(learner):
    # A trial's member is (n, eps, i); the draw's scratch buffers are made
    # by the warm-up trial, so the traced trial allocates far below 8 n bytes.
    n = 1 << 17
    cfg = pne_cfg(n, 0.1, learner, 2, 1 / 16, 2, 11)
    run_trial(cfg, 0)
    tracemalloc.start()
    try:
        run_trial(cfg, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n


class TestPosteriorRuleError:
    @pytest.mark.parametrize("n,eps,i,m", [(6, 0.2, 3, 1), (8, 0.1, 2, 2), (10, 0.3, 7, 0)])
    def test_matches_exhaustive_enumeration(self, n, eps, i, m):
        # run the same sampling path, then enumerate all 2^n test points
        dist = make_pne(n, eps, i)
        from gaplab.concepts import packed_column
        from gaplab.distributions import sample_bit_matrix
        from gaplab.learners import LabeledSample
        from reference import k_set_indices

        gen = RngSeed(42).generator(0)
        words = sample_bit_matrix(dist, m, gen)
        sample = LabeledSample(words, packed_column(words, i), n)
        k = list(k_set_indices(sample))
        assert i in k
        state = PosteriorState(tuple(k), eps, m, n)
        brute = sum(
            point_prob(dist, z)
            for z in hypercube_points(n)
            if bayes_posterior_predict(state, z) != z.bit(i)
        )
        thr = posterior_threshold(len(k), eps)
        assert posterior_rule_error(len(k), thr, eps) == pytest.approx(brute, abs=1e-12)

    def test_k1_perfect(self):
        assert posterior_rule_error(1, posterior_threshold(1, 0.2), 0.2) == 0.0

    def test_never_predicting_one_costs_half(self):
        # threshold above K means the rule is constantly 0
        assert posterior_rule_error(5, 6, 0.2) == 0.5


PMF_EPS = (0.05, 0.1, 0.125, 0.2, 0.3, 0.45)


def exact_pmf(j, trials, eps):
    """Pr[Binomial(trials, eps) = j] for the float eps, rounded once: math.comb
    times eps's exact ratio of integers, as Fraction(eps) holds it."""
    num, den = Fraction(eps).as_integer_ratio()
    return math.comb(trials, j) * num**j * (den - num) ** (trials - j) / den**trials


def assert_pmf_close(j, trials, eps, want):
    got = mc_harness._binom_pmf(j, trials, eps)
    if want >= sys.float_info.min:
        assert abs(got - want) <= 1e-12 * want, (j, trials, eps, got, want)
    else:  # below the normal range only the exponent is left to check
        assert got < 2 * sys.float_info.min, (j, trials, eps, got, want)


class TestBinomialPmf:
    @pytest.mark.parametrize("eps", PMF_EPS)
    def test_every_j_up_to_300_trials_is_within_1e_12_of_the_exact_value(self, eps):
        # The numerators of exact_pmf, row by row by Pascal's rule.
        num, den = Fraction(eps).as_integer_ratio()
        row = [1]
        for trials in range(301):
            total = den**trials
            for j, count in enumerate(row):
                assert_pmf_close(j, trials, eps, count / total)
            row = [(den - num) * same + num * one_less
                   for same, one_less in zip(row + [0], [0] + row)]

    @pytest.mark.parametrize("eps", PMF_EPS)
    def test_near_the_mean_below_4000_trials_is_within_1e_12(self, eps):
        for trials in range(301, 4000, 199):
            mean, sd = trials * eps, math.sqrt(trials * eps * (1 - eps))
            for z in (-4, -2, -1, -0.5, 0, 0.5, 1, 2, 4):
                j = round(mean + z * sd)
                assert_pmf_close(j, trials, eps, exact_pmf(j, trials, eps))


def test_posterior_rule_decides_as_the_two_cdf_form():
    # The rule's failure decision, error > eps_acc, against the form it
    # replaced, (F(S* - 2) + 1 - F(S* - 1)) / 2 with F scipy's binomial CDF.
    from scipy.special import bdtr  # the test extra's oracle; gaplab does not import scipy

    def cdf(k, trials, eps):
        return 0.0 if k < 0 else 1.0 if k >= trials else float(bdtr(float(k), trials, eps))

    points = 0
    for eps in (0.1, 0.2):
        for k in [*range(1, 4097), *range(4097, 2**17 + 1, 97)]:
            threshold = posterior_threshold(k, eps)
            new = posterior_rule_error(k, threshold, eps)
            old = 0.5 * (cdf(threshold - 2, k - 1, eps) + 1.0 - cdf(threshold - 1, k - 1, eps))
            for eps_acc in (1 / 16, 0.1, 0.25):
                assert (new > eps_acc) == (old > eps_acc), (k, eps, eps_acc, new, old)
            points += 1
    assert points == 10_812


class TestEstimateFailure:
    def test_always_correct_learner(self):
        # ERM with target c_1 under P_1: index 1 always wins the tie-break
        cfg = pne_cfg(16, 0.1, "erm", 3, 0.1, 50, 7, target=FixedTarget(1), i=1)
        est = estimate_failure_prob(cfg)
        assert est.estimate == 0.0

    def test_eps_acc_at_least_one_never_fails(self):
        cfg = pne_cfg(8, 0.1, "erm", 0, 1.0, 40, 3)
        est = estimate_failure_prob(cfg)
        assert est.estimate == 0.0

    def test_thread_invariance(self, pool_starts):
        cfg = pne_cfg(128, 0.1, "erm", 4, 1 / 16, 120, 11)
        e1, f1 = run_trials(cfg)
        with TrialPool(2) as pool:
            e2, f2 = run_trials(cfg, pool)
        assert pool_starts == [2]
        assert np.array_equal(e1, e2)
        assert np.array_equal(f1, f2)

    def test_pure_count_aggregation(self):
        cfg = pne_cfg(32, 0.1, "erm", 2, 1 / 16, 60, 13)
        errors, fails = run_trials(cfg)
        est = estimate_failure_prob(cfg)
        assert est.estimate == fails.sum() / 60

    def test_monotone_in_m_within_ci(self):
        ests = []
        for m in (0, 5, 10, 15):
            cfg = pne_cfg(64, 0.1, "erm", m, 1 / 16, 800, 17, gamma=0.05)
            sub = TrialConfig(
                concept_class=cfg.concept_class,
                dist=cfg.dist,
                target=cfg.target,
                learner=cfg.learner,
                m=m,
                eps_acc=cfg.eps_acc,
                trials=cfg.trials,
                seed=cfg.seed.substream(m),
                gamma=cfg.gamma,
            )
            ests.append(estimate_failure_prob(sub))
        for lo, hi in zip(ests[1:], ests[:-1]):
            assert lo.estimate <= hi.estimate + 2 * hi.radius


class TestSearch:
    def test_point_mass_erm_m_star_at_most_one(self):
        dom = enumerated_domain(2)
        dist = FiniteSupportDistribution(dom, [1.0, 0.0])
        cls = all_functions_class(dom)
        cfg = TrialConfig(
            concept_class=cls,
            dist=dist,
            target=FixedTarget(cls.table_from_string("10") + 1),
            learner="erm",
            m=1,
            eps_acc=0.25,
            trials=400,
            seed=RngSeed(23),
            gamma=0.05,
        )
        res = sample_complexity_search(cfg, 0.1, 64)
        assert res.m_star <= 1

    def test_bracket_invariants(self):
        cfg = pne_cfg(256, 0.1, "erm", 1, 1 / 16, 1500, 29, gamma=0.05)
        res = sample_complexity_search(cfg, 0.15, 256)
        star = res.estimate_at(res.m_star)
        assert star.upper <= 0.15
        lo_m = res.bracket[0]
        if lo_m > 0:
            lo = res.estimate_at(lo_m)
            assert lo.lower > 0.15
        for e in res.per_m:
            if e.status == "unresolved":
                assert e.estimate.lower <= 0.15 < e.estimate.upper

    def test_impossible_ci_rejected(self):
        cfg = pne_cfg(16, 0.1, "erm", 1, 1 / 16, 50, 1)
        with pytest.raises(InvalidParameterError):
            sample_complexity_search(cfg, 0.05, 64)

    def test_bracket_error_when_never_succeeding(self):
        # m capped below anything that can learn
        cfg = pne_cfg(4096, 0.1, "erm", 1, 1 / 16, 400, 31, gamma=0.05)
        with pytest.raises(SearchBracketError):
            sample_complexity_search(cfg, 0.2, 2)


# (trials, seed, delta): each delta is above the CI radius at that trial count
# (0.094 at 300 trials, 0.052 at 1000, gamma = 0.01).
STOP_GRID = [(300, 3, 0.15), (300, 8, 0.25), (1000, 3, 1 / 16), (1000, 8, 0.15)]


class TestSearchStops:
    @pytest.mark.parametrize("n", [16, 256])
    @pytest.mark.parametrize("learner", ["erm", "cover", "bayes-posterior"])
    @pytest.mark.parametrize("trials, seed, delta", STOP_GRID)
    def test_matches_the_full_count_search(self, n, learner, trials, seed, delta):
        cfg = pne_cfg(n, 0.1, learner, 1, 1 / 16, trials, seed)
        got = sample_complexity_search(cfg, delta, 256)
        want = full_count_search(cfg, delta, 256)
        assert got.m_star == want.m_star
        assert got.bracket == want.bracket
        assert [(e.m, e.status) for e in got.per_m] == [(e.m, e.status) for e in want.per_m]
        assert got.unresolved_ms == want.unresolved_ms
        assert got.estimate_at(got.m_star) == want.estimate_at(want.m_star)
        for e, full in zip(got.per_m, want.per_m):
            if e.status == "success":
                assert (e.trials_run, e.stopped) == (trials, None)
            # A prefix count over T is a lower bound on the full count.
            assert e.estimate.estimate <= full.estimate.estimate
            assert (e.trials_run < trials) == (e.stopped is not None)
            if e.trials_run == trials:
                assert e.estimate == full.estimate

    def test_points_stop_for_both_reasons(self):
        cfg = pne_cfg(256, 0.1, "erm", 1, 1 / 16, 1000, 3)
        res = sample_complexity_search(cfg, 1 / 16, 256)
        stopped = {e.stopped for e in res.per_m if e.trials_run < 1000}
        assert stopped == {"fail reached", "fail out of reach"}
        for e in res.per_m:
            if e.stopped == "fail reached":
                assert e.status == "fail" and e.estimate.lower > 1 / 16
            if e.stopped == "fail out of reach":
                # The count left cannot lift the CI's lower bound above delta.
                count = round(e.estimate.estimate * 1000) + 1000 - e.trials_run
                assert e.status == "unresolved"
                assert metric_cover.EstimateWithCI.from_count(count, 1000, 0.01).lower <= 1 / 16

    def test_trials_run_are_the_same_on_two_workers(self, pool_starts):
        cfg = pne_cfg(256, 0.1, "cover", 1, 1 / 16, 1000, 8)
        serial = sample_complexity_search(cfg, 0.15, 256)
        with TrialPool(2) as pool:
            fanned = sample_complexity_search(cfg, 0.15, 256, pool)
        assert pool_starts == [2]
        assert [(e.m, e.trials_run, e.stopped) for e in fanned.per_m] == [
            (e.m, e.trials_run, e.stopped) for e in serial.per_m]
        assert any(e.trials_run < 1000 for e in serial.per_m)
        assert fanned == serial

    def test_a_serial_stop_runs_whole_blocks(self, monkeypatch):
        spans = []
        real = mc_harness._run_chunk

        def recording(trial, args, dtypes, lo, hi):
            spans.append((lo, hi))
            return real(trial, args, dtypes, lo, hi)

        monkeypatch.setattr(mc_harness, "_run_chunk", recording)
        cfg = pne_cfg(32, 0.1, "erm", 3, 1 / 16, 160, 5)
        errors, fails = run_trials(cfg, settled=lambda outputs: outputs[1].size >= 30)
        assert spans == [(0, 10), (10, 20), (20, 30)]
        assert fails.size == errors.size == 30
        assert errors.tolist() == [run_trial(cfg, t).error for t in range(30)]


class TestLowerBound:
    def test_budget_formula(self):
        assert lower_bound_m(1 << 17, 0.2) == 2
        assert lower_bound_m(1 << 17, 0.2) == math.floor(
            math.log(1 << 17) / (3 * math.log(5.0))
        )

    def test_regime_check(self):
        assert in_theorem_regime(1 << 17, 0.2)
        assert not in_theorem_regime(1 << 10, 0.1)

    def test_small_scale_failure_is_high(self):
        est = lower_bound_experiment(
            lower_bound_config(4096, 0.2, "bayes-posterior", 300, RngSeed(5)))
        assert est.estimate > 1 / 16

    def test_eps_range(self):
        with pytest.raises(InvalidParameterError):
            lower_bound_config(1 << 17, 0.3, "erm", 10, RngSeed(0))

    def test_erm_fails_at_least_as_often_as_posterior_rule(self):
        # the posterior rule is Bayes-optimal for the matched-pair prior
        bayes = lower_bound_experiment(
            lower_bound_config(2048, 0.2, "bayes-posterior", 400, RngSeed(37)))
        erm_est = lower_bound_experiment(
            lower_bound_config(2048, 0.2, "erm", 400, RngSeed(37)))
        assert erm_est.estimate >= bayes.estimate - (bayes.radius + erm_est.radius)


class TestKsStats:
    def test_m_zero_candidate_set_is_everything(self):
        s = ks_statistics_experiment(PneFamily(64, 0.2), 0, 50, RngSeed(7))
        assert s.k_quantiles == (64.0, 64.0, 64.0, 64.0, 64.0)

    def test_ratio_band_definition(self):
        s = ks_statistics_experiment(PneFamily(512, 0.2), 1, 300, RngSeed(9))
        assert s.ratio_band == pytest.approx((0.1, 0.24), abs=1e-12)
        assert 0.0 <= s.ratio_in_band.estimate <= 1.0
        assert sum(s.sk_hist_counts) == 300

    def test_thread_invariance(self, pool_starts):
        a = ks_statistics_experiment(PneFamily(256, 0.2), 2, 80, RngSeed(11))
        with TrialPool(2) as pool:
            b = ks_statistics_experiment(PneFamily(256, 0.2), 2, 80, RngSeed(11), pool=pool)
        assert pool_starts == [2]
        assert a == b

    @given(arrays(np.int64, st.integers(1, 3000), elements=st.integers(0, 2**40)))
    @example(np.array([5], dtype=np.int64))
    @settings(max_examples=150, deadline=None)
    def test_five_quantiles_equal_np_quantile(self, values):
        # np.quantile loads numpy.ma, which a test may do and gaplab may not.
        expected = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
        got = five_quantiles(values)
        assert all(type(q) is float for q in got)
        assert got == tuple(float(q) for q in expected)


@pytest.mark.parametrize("trials, gamma, m", [(0, 0.01, 2), (100, 1.5, 2), (100, 0.01, -1)])
def test_ks_stats_rejects_a_bad_spec_before_any_trial(monkeypatch, trials, gamma, m):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(mc_harness, "_map_trials", no_trial)
    with pytest.raises(InvalidParameterError):
        ks_statistics_experiment(PneFamily(64, 0.2), m, trials, RngSeed(0), gamma)


class TestNoGap:
    def test_zero_violations_and_bound(self):
        dom = enumerated_domain(8)
        rows = no_gap_experiment(
            no_gap_configs(uniform_finite(dom), [1, 4, 8], 500, 0.1, RngSeed(13)))
        for row in rows:
            assert row.violations == 0
            assert row.fail_rate.estimate <= row.z_ge_rate.estimate

    def test_full_coverage_makes_zero_missing_mass(self):
        dom = enumerated_domain(2)
        rows = no_gap_experiment(no_gap_configs(uniform_finite(dom), [64], 100, 0.1, RngSeed(15)))
        assert rows[0].mean_missing_mass < 0.01
        assert rows[0].fail_rate.estimate == 0.0

    def test_two_point_uniform_missing_mass(self):
        dom = enumerated_domain(2)
        rows = no_gap_experiment(no_gap_configs(uniform_finite(dom), [1], 400, 0.1, RngSeed(17)))
        # with m=1 exactly one point is seen, so Z = 1/2 every trial
        assert rows[0].mean_missing_mass == pytest.approx(0.5, abs=1e-12)

    def test_skewed_distribution(self):
        dom = enumerated_domain(4)
        rows = no_gap_experiment(
            no_gap_configs(geometric_finite(dom), [2], 300, 0.05, RngSeed(19)))
        assert rows[0].violations == 0

    def test_domain_cap(self):
        dom = enumerated_domain(13)
        with pytest.raises(InvalidParameterError):
            no_gap_configs(uniform_finite(dom), [1], 10, 0.1, RngSeed(0))

    @pytest.mark.parametrize(
        "change, named",
        [({"m_grid": [-1]}, "m must"), ({"eps_acc": 0.0}, "eps_acc"),
         ({"trials": 0}, "trials"), ({"default_bit": 2}, "default")],
        ids=["m", "eps_acc", "trials", "default_bit"],
    )
    def test_bad_spec_names_the_field(self, change, named):
        spec = {"dist": uniform_finite(enumerated_domain(2)), "m_grid": [1], "trials": 10,
                "eps_acc": 0.1, "seed": RngSeed(0), **change}
        with pytest.raises(InvalidParameterError, match=named):
            no_gap_configs(**spec)

    @pytest.mark.parametrize(
        "dist",
        [
            geometric_finite(enumerated_domain(6)),
            FiniteSupportDistribution(enumerated_domain(3), [0.7, 0.2, 0.1]),
        ],
    )
    def test_thread_invariance_uneven_split(self, pool_starts, dist):
        # 501 trials do not split evenly into 16 blocks
        args = (dist, [0, 2, 5], 501, 0.1, RngSeed(23))
        a = no_gap_experiment(no_gap_configs(*args))
        with TrialPool(2) as pool:
            b = no_gap_experiment(no_gap_configs(*args), pool=pool)
        assert pool_starts == [2]
        assert a == b
        assert [r.mean_missing_mass for r in a] == [r.mean_missing_mass for r in b]

    def test_trials_build_and_search_no_point_set(self, monkeypatch):
        # A drawn point is named by its support index from the draw on, and
        # the memorizer reads the support's keys as they were built.
        dist = geometric_finite(enumerated_domain(6))
        configs = no_gap_configs(dist, [1, 8], 50, 0.1, RngSeed(3))

        def refuse(*args):
            raise AssertionError("a trial built or searched a point set")

        monkeypatch.setattr(PointSet, "_hold", refuse)
        monkeypatch.setattr(PointSet, "find", refuse)
        rows = no_gap_experiment(configs)
        assert [row.trials for row in rows] == [50, 50]

    def test_few_trials_run_serially(self, monkeypatch):
        # trials < 2 * workers never starts a pool, and gives the serial rows
        dist = uniform_finite(enumerated_domain(4))
        serial = no_gap_experiment(no_gap_configs(dist, [1, 3], 3, 0.1, RngSeed(29)))

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("gaplab.mc_harness.ProcessPoolExecutor", no_pool)
        with TrialPool(2) as pool:
            configs = no_gap_configs(dist, [1, 3], 3, 0.1, RngSeed(29))
            assert no_gap_experiment(configs, pool=pool) == serial


def _reference_no_gap_trial(dist, m, seed, t):
    """(d, Z) of no-gap trial t with default bit 0, from the draw order alone:
    the target, then the sample.  The memorizer gets every seen point right
    and predicts 0 on every unseen one."""
    gen = seed.generator(t)
    cls = all_functions_class(dist.support)
    mask = cls.table_mask(int(gen.integers(1, cls.num_concepts + 1)))
    seen = set(sample_support_indices(dist, m, gen).tolist())
    positions = metric_cover.oracle_positions(cls, dist)
    unseen = [u for u in range(len(dist.support)) if u not in seen]
    return (dist.exact_mass(u for u in unseen if (mask >> positions[u]) & 1),
            dist.exact_mass(unseen))


def _reference_ks_trial(family, m, seed, t):
    """(K, S) of K/S trial t from its PCG64 seed: I, then m + 1 rows of n
    uniforms row-major, the last row being the test point Z."""
    gen = np.random.Generator(np.random.PCG64(trial_seed(seed, t)))
    i = int(gen.integers(1, family.n + 1))
    bits = gen.random((m + 1, family.n)) < family.member(i).marginals
    candidates = (bits[:m] == bits[:m, i - 1 : i]).all(axis=0)
    return int(candidates.sum()), int((candidates & bits[m]).sum())


class TestOneChunkLoop:
    @pytest.fixture()
    def chunk_calls(self, monkeypatch):
        """(trial name, dtypes, lo, hi) of every _run_chunk call."""
        calls = []
        real = mc_harness._run_chunk

        def counting(trial, args, dtypes, lo, hi):
            calls.append((trial.__name__, dtypes, lo, hi))
            return real(trial, args, dtypes, lo, hi)

        monkeypatch.setattr(mc_harness, "_run_chunk", counting)
        return calls

    def test_run_trials_maps_the_chunk_loop(self, chunk_calls):
        cfg = pne_cfg(32, 0.1, "erm", 3, 1 / 16, 40, 5)
        errors, fails = run_trials(cfg)
        assert chunk_calls == [("run_trial", ("f8", "u1"), 0, 40)]
        assert errors.dtype == np.float64 and fails.dtype == np.uint8
        trials = [run_trial(cfg, t) for t in range(40)]
        assert errors.tolist() == [r.error for r in trials]
        assert fails.tolist() == [r.failed for r in trials]

    def test_no_gap_maps_the_chunk_loop(self, chunk_calls):
        dist = uniform_finite(enumerated_domain(4))
        no_gap_experiment(no_gap_configs(dist, [1, 3], 30, 0.1, RngSeed(3)))
        assert chunk_calls == [("_no_gap_trial", ("u1", "u1", "u1", "f8"), 0, 30)] * 2

    def test_ks_statistics_maps_the_chunk_loop(self, chunk_calls):
        ks_statistics_experiment(PneFamily(256, 0.2), 2, 30, RngSeed(4))
        assert chunk_calls == [("_ks_trial", ("i8", "i8"), 0, 30)]

    @pytest.mark.parametrize("n, eps, m", [(256, 0.2, 2), (1000, 0.1, 3)])
    def test_ks_trial_matches_the_reference(self, n, eps, m):
        family, seed = PneFamily(n, eps), RngSeed(13)
        got = [mc_harness._ks_trial(family, m, seed, t) for t in range(100)]
        ref = [_reference_ks_trial(family, m, seed, t) for t in range(100)]
        assert got == ref
        # Some trials see a candidate besides I, and some a candidate at 1 on Z.
        assert max(k for k, _ in ref) > 1 and max(s for _, s in ref) > 0

    def test_ks_chunks_join_to_the_trials(self):
        family, seed = PneFamily(1000, 0.1), RngSeed(6)
        trials = [mc_harness._ks_trial(family, 3, seed, t) for t in range(64)]
        serial = mc_harness._map_trials(mc_harness._ks_chunk, (family, 3, seed), 64, None)
        with TrialPool(2) as pool:
            fanned = mc_harness._map_trials(mc_harness._ks_chunk, (family, 3, seed), 64, pool)
        for ks, ss in (serial, fanned):
            assert ks.dtype == ss.dtype == np.int64
            assert list(zip(ks.tolist(), ss.tolist())) == trials

    def test_no_gap_trial_matches_the_reference(self):
        dist = uniform_finite(enumerated_domain(4))
        cfg = TrialConfig(all_functions_class(dist.support), dist, RandomConcept(),
                          "memorizer", 3, 0.125, 200, RngSeed(8))
        threshold = Fraction(1, 4)
        got = [mc_harness._no_gap_trial(cfg, threshold, t) for t in range(200)]
        ref = [_reference_no_gap_trial(dist, 3, RngSeed(8), t) for t in range(200)]
        assert got == [(d > z, z >= threshold, d > threshold, float(z)) for d, z in ref]
        # Z meets the threshold exactly on some trials, and d exceeds it on some.
        assert any(z == threshold for _, z in ref) and any(d > threshold for d, _ in ref)

    def test_no_gap_rows_match_the_reference(self):
        dist = uniform_finite(enumerated_domain(4))
        trials, seed = 150, RngSeed(21)
        threshold = Fraction(1, 4)
        for row in no_gap_experiment(no_gap_configs(dist, [2, 3], trials, 0.125, seed)):
            ref = [_reference_no_gap_trial(dist, row.m, seed.substream(row.m), t)
                   for t in range(trials)]
            z_total = 0.0
            for _, z in ref:
                z_total += float(z)
            assert row.violations == sum(d > z for d, z in ref) == 0
            assert row.z_ge_rate.estimate == sum(z >= threshold for _, z in ref) / trials
            assert row.fail_rate.estimate == sum(d > threshold for d, _ in ref) / trials
            assert row.mean_missing_mass == z_total / trials


@pytest.fixture()
def pool_starts(monkeypatch):
    """Worker counts of the process pools started, in order."""
    starts = []

    class CountingPool(mc_harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(mc_harness, "ProcessPoolExecutor", CountingPool)
    return starts


@pytest.fixture()
def pool_exits(pool_starts, monkeypatch):
    """The exception type (None if none) each started process pool's
    __exit__ saw, in order."""
    exits = []

    class ExitRecordingPool(mc_harness.ProcessPoolExecutor):
        def __exit__(self, *exc):
            exits.append(exc[0])
            return super().__exit__(*exc)

    monkeypatch.setattr(mc_harness, "ProcessPoolExecutor", ExitRecordingPool)
    return exits


def _pickled(x):
    return pickle.loads(pickle.dumps(x))


class TestPickledToAWorker:
    """A TrialConfig is pickled to a pool worker with each block: what it
    holds comes back equal, and its arrays read-only."""

    def test_point_set(self):
        points = enumerated_domain(5)
        copy = _pickled(points)
        assert copy == points and copy.n == points.n
        assert np.array_equal(copy.rows, points.rows) and not copy.rows.flags.writeable

    def test_finite_law(self):
        law = geometric_finite(enumerated_domain(6))
        copy = _pickled(law)
        assert copy.support == law.support and copy.to_json_dict() == law.to_json_dict()
        assert (copy.numerators, copy.denominator) == (law.numerators, law.denominator)
        assert not copy.probs.flags.writeable and not copy.support.rows.flags.writeable

    def test_product_law(self):
        law = ProductDistribution([0.1, 0.5, 0.25])
        copy = _pickled(law)
        assert copy.to_json_dict() == law.to_json_dict()
        assert np.array_equal(copy.marginals, law.marginals)
        assert not copy.marginals.flags.writeable

    @pytest.mark.parametrize("tables", [range(8), [5, 1, 6]], ids=["range", "list"])
    def test_table_class(self, tables):
        cls = TableClass(enumerated_domain(3), tables)
        cls.table_array()  # cached before the class is pickled
        copy = _pickled(cls)
        assert copy.domain == cls.domain and copy.tables == cls.tables
        assert copy.to_json_dict() == cls.to_json_dict()
        assert np.array_equal(copy.table_array(), cls.table_array())
        assert not copy.table_array().flags.writeable
        assert not copy.domain.rows.flags.writeable

    def test_no_gap_config_keeps_its_positions(self):
        law = geometric_finite(PointSet(["110", "001", "011", "100"]))
        (cfg,) = no_gap_configs(law, [3], 50, 0.1, RngSeed(2))
        self.check_config(cfg, [0, 1, 2, 3])

    def test_a_support_in_another_order_keeps_its_positions(self):
        # enumerated_domain(4) holds 00, 10, 01, 11 in that order.
        law = geometric_finite(PointSet(["11", "10", "01", "00"]))
        cfg = TrialConfig(all_functions_class(enumerated_domain(4)), law, RandomConcept(),
                          "memorizer", 3, 0.1, 50, RngSeed(2))
        self.check_config(cfg, [3, 1, 2, 0])

    @staticmethod
    def check_config(cfg, positions):
        copy = _pickled(cfg)
        assert copy.positions == cfg.positions == positions
        assert copy.to_json_dict() == cfg.to_json_dict()
        assert not copy.dist.probs.flags.writeable
        assert not copy.concept_class.domain.rows.flags.writeable
        threshold = Fraction(1, 5)
        assert ([mc_harness._no_gap_trial(copy, threshold, t) for t in range(50)]
                == [mc_harness._no_gap_trial(cfg, threshold, t) for t in range(50)])


class TestTrialPool:
    def test_calls_handed_one_pool_share_one_start(self, pool_starts):
        cfg = pne_cfg(32, 0.1, "erm", 3, 1 / 16, 40, 5)
        dist = uniform_finite(enumerated_domain(4))
        configs = no_gap_configs(dist, [1, 3], 40, 0.1, RngSeed(3))
        serial = run_trials(cfg), no_gap_experiment(configs)
        with TrialPool(2) as pool:
            errors, fails = run_trials(cfg, pool)
            rows = no_gap_experiment(configs, pool=pool)
        assert pool_starts == [2]
        assert np.array_equal(errors, serial[0][0]) and np.array_equal(fails, serial[0][1])
        assert rows == serial[1]

    def test_pool_starts_only_when_trials_fan_out(self, pool_starts):
        cfg = pne_cfg(32, 0.1, "erm", 3, 1 / 16, 3, 5)
        with TrialPool(2) as pool:
            run_trials(cfg, pool)  # 3 trials < 2 * workers: serial
        with TrialPool(1) as pool:
            run_trials(replace(cfg, trials=40), pool)
        assert pool_starts == []

    def test_each_pool_starts_its_own_workers(self, pool_exits, pool_starts):
        cfg = pne_cfg(32, 0.1, "erm", 3, 1 / 16, 40, 5)
        for _ in range(2):
            with TrialPool(2) as pool:
                run_trials(cfg, pool)
        assert pool_starts == [2, 2]
        assert pool_exits == [None, None]

    def test_search_starts_one_pool(self, pool_starts):
        cfg = pne_cfg(16, 0.1, "cover", 1, 1 / 16, 300, 8)
        serial = sample_complexity_search(cfg, 0.25, 64)
        assert len(serial.per_m) > 1
        with TrialPool(2) as pool:
            assert sample_complexity_search(cfg, 0.25, 64, pool) == serial
        assert pool_starts == [2]

    def test_pool_closes_on_error(self, pool_exits, pool_starts):
        cfg = pne_cfg(4096, 0.1, "erm", 1, 1 / 16, 150, 5)
        with pytest.raises(SearchBracketError):
            with TrialPool(2) as pool:
                sample_complexity_search(cfg, 0.3, 1, pool)
        assert pool_starts == [2]
        assert pool_exits == [SearchBracketError]


    def test_a_stop_cancels_the_blocks_not_yet_running(self, monkeypatch):
        submitted = []

        class RecordingPool(mc_harness.ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append(args[-2:])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(mc_harness, "ProcessPoolExecutor", RecordingPool)
        cfg = pne_cfg(32, 0.1, "erm", 3, 1 / 16, 160, 5)
        with TrialPool(2) as pool:
            errors, fails = run_trials(cfg, pool, settled=lambda outputs: True)
        # 2 * workers blocks in flight, one more sent as the first comes back.
        assert submitted == [(0, 10), (10, 20), (20, 30), (30, 40), (40, 50)]
        assert errors.tolist() == [run_trial(cfg, t).error for t in range(10)]

    def test_imap_yields_in_argument_order(self):
        # The last call ends first.
        calls = [(k, 0.05 * (3 - k), False) for k in range(4)]
        with TrialPool(2) as pool:
            assert list(pool.imap(_after_sleep, calls)) == [0, 1, 2, 3]

    def test_imap_raises_the_first_error_in_argument_order(self, monkeypatch):
        submitted, cancelled = {}, []

        class RecordingPool(mc_harness.ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                submitted[args[0]] = future
                return future

        cancel = Future.cancel

        def recording_cancel(future):
            cancelled.append(future)
            return cancel(future)

        monkeypatch.setattr(mc_harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(Future, "cancel", recording_cancel)
        # Call 2 fails at once, call 1 later; calls 2-4, in flight, are
        # cancelled, and calls 5 on are never sent.
        calls = [(k, 0.3 if k == 1 else 0.0, k in (1, 2)) for k in range(12)]
        taken = []
        with TrialPool(2) as pool:
            with pytest.raises(SearchBracketError, match="^call 1$"):
                for result in pool.imap(_after_sleep, calls):
                    taken.append(result)
        assert taken == [0]
        assert list(submitted) == [0, 1, 2, 3, 4]
        assert cancelled == [submitted[k] for k in (2, 3, 4)]


def _after_sleep(k: int, delay: float, fail: bool) -> int:
    """k after `delay` seconds, or a SearchBracketError naming it if `fail`."""
    time.sleep(delay)
    if fail:
        raise SearchBracketError(f"call {k}")
    return k


class TestTailInequality:
    def test_all_ones(self):
        assert tail_inequality_check([1.0] * 10, 0.5)

    def test_all_at_threshold(self):
        assert tail_inequality_check([0.5] * 10, 0.5)

    def test_worked_example(self):
        # mean 0.7, bound (0.7-0.5)/0.5 = 0.4, empirical 2/3 >= 0.4
        assert tail_inequality_check([0.2, 0.9, 1.0], 0.5)

    def test_rejects_values_above_one(self):
        with pytest.raises(InvalidParameterError):
            tail_inequality_check([1.2], 0.5)

    def test_holds_on_produced_error_batches(self):
        cfg = pne_cfg(64, 0.1, "erm", 3, 1 / 16, 150, 21)
        errors, _ = run_trials(cfg)
        for t in (0.0, 1 / 16, 0.3, 0.9):
            assert tail_inequality_check(errors, t)


class TestConfigValidation:
    def test_random_pair_needs_family(self):
        with pytest.raises(InvalidParameterError):
            TrialConfig(
                concept_class=ProjectionClass(8),
                dist=make_pne(8, 0.1, 1),
                target=RandomPair(),
                learner="erm",
                m=1,
                eps_acc=0.1,
                trials=1,
                seed=RngSeed(0),
            )

    def test_family_needs_random_pair(self):
        with pytest.raises(InvalidParameterError):
            TrialConfig(
                concept_class=ProjectionClass(8),
                dist=PneFamily(8, 0.1),
                target=FixedTarget(1),
                learner="erm",
                m=1,
                eps_acc=0.1,
                trials=1,
                seed=RngSeed(0),
            )

    def test_memorizer_needs_tables(self):
        with pytest.raises(OracleUnavailableError):
            pne_cfg(8, 0.1, "memorizer", 1, 0.1, 1, 0)

    def test_random_concept_needs_a_concept(self):
        dom = enumerated_domain(1)
        with pytest.raises(InvalidParameterError, match="needs a class with concepts"):
            TrialConfig(TableClass(dom, []), uniform_finite(dom), RandomConcept(), "cover", 1,
                        0.1, 1, RngSeed(0), cover_level=0.1)

    def test_unknown_learner(self):
        with pytest.raises(InvalidParameterError):
            pne_cfg(8, 0.1, "svm", 1, 0.1, 1, 0)

    def test_projections_need_product_dist(self):
        dom = enumerated_domain(2)
        with pytest.raises(OracleUnavailableError):
            TrialConfig(
                concept_class=ProjectionClass(1),
                dist=uniform_finite(dom),
                target=FixedTarget(1),
                learner="erm",
                m=1,
                eps_acc=0.1,
                trials=1,
                seed=RngSeed(0),
            )

    def test_posterior_needs_the_member_fair_coordinate_as_target(self):
        # posterior_rule_error scores the target as the fair coordinate i.
        for target in (FixedTarget(3), RandomConcept()):
            with pytest.raises(OracleUnavailableError, match="needs target fixed:1"):
                pne_cfg(16, 0.2, "bayes-posterior", 3, 0.1, 1, 0, target=target, i=1)
        cfg = pne_cfg(16, 0.2, "bayes-posterior", 3, 0.1, 1, 0, target=FixedTarget(5), i=5)
        assert 0.0 <= run_trial(cfg, 0).error <= 0.5

    @pytest.mark.parametrize(
        "key, value",
        [("m", 2.7), ("m", True), ("trials", 40.9), ("memorizer_default", False)],
    )
    def test_document_int_key_refuses_what_int_would_truncate(self, key, value):
        doc = {**pne_cfg(16, 0.1, "erm", 2, 0.1, 40, 3).to_json_dict(), key: value}
        with pytest.raises(InvalidParameterError,
                           match=f"key '{key}': {value!r} is not a valid int"):
            config_from_json_dict(doc)

    def test_document_whole_float_reads_as_its_int(self):
        doc = pne_cfg(16, 0.1, "erm", 2, 0.1, 40, 3).to_json_dict()
        cfg = config_from_json_dict({**doc, "m": 2.0, "trials": 40.0})
        assert cfg.to_json_dict() == doc

    @pytest.mark.parametrize("key", ["cover_level", "learner_eps"])
    @pytest.mark.parametrize("value", ["abc", "0.2", True, [0.2]])
    def test_document_number_key_refuses_what_is_no_number(self, key, value):
        doc = {**pne_cfg(16, 0.1, "cover", 2, 0.1, 40, 3).to_json_dict(), key: value}
        with pytest.raises(InvalidParameterError, match=f"key '{key}': .* is not a number"):
            config_from_json_dict(doc)

    def test_document_number_key_keeps_its_spelling(self):
        doc = {**pne_cfg(16, 0.1, "cover", 2, 0.1, 40, 3).to_json_dict(), "cover_level": 1}
        assert config_from_json_dict(doc).to_json_dict()["cover_level"] == 1

    def test_json_roundtrip(self):
        cfg = pne_cfg(32, 0.1, "bayes-posterior", 2, 1 / 16, 10, 3)
        cfg2 = config_from_json_dict(cfg.to_json_dict())
        assert cfg2.to_json_dict() == cfg.to_json_dict()
        assert run_trial(cfg, 4) == run_trial(cfg2, 4)
