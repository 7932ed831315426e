"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy criteria map
their trials on one module-wide TrialPool(0), which resolves to one worker
per CPU this process may run on.
"""

import csv
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from gaplab.cli import main as cli_main
from gaplab.concepts import (
    ProjectionClass,
    enumerated_domain,
    full_hypercube,
    vc_dimension_bruteforce,
)
from gaplab.distributions import (
    PneFamily,
    RngSeed,
    geometric_finite,
    make_pne,
    uniform_finite,
)
from gaplab.mc_harness import (
    RandomPair,
    TrialConfig,
    TrialPool,
    estimate_failure_prob,
    ks_statistics_experiment,
    lower_bound_config,
    lower_bound_experiment,
    lower_bound_m,
    no_gap_configs,
    no_gap_experiment,
    run_trials,
    sample_complexity_search,
)
from gaplab.metric_cover import (
    corollary_m,
    disagreement_exact_projections,
    greedy_packing_cover,
    sauer_bound,
    sauer_estimate,
)
from reference import bayes_bit_predictor, kl_lower_bound_check, tail_inequality_check

SEED = 20250811
AUTO = 0  # resolve worker count from the machine


@pytest.fixture(scope="module")
def pool():
    """The worker pool every heavy criterion of the module maps its trials on."""
    with TrialPool(AUTO) as trial_pool:
        yield trial_pool


def report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_vc_exactness():
    t0 = time.perf_counter()
    results = {}
    for n in range(2, 17):
        results[n] = vc_dimension_bruteforce(ProjectionClass(n), full_hypercube(n))
    elapsed = time.perf_counter() - t0
    ok = all(results[n] == n.bit_length() - 1 for n in results) and elapsed < 10.0
    report(1, "VC exactness", ok,
           f"d(C_n) = floor(log2 n) for n in 2..16, {elapsed:.2f}s (< 10s)")


def test_criterion_2_small_cover_grid():
    worst_pair = 0.0
    worst_cert = 0.0
    sizes_ok = True
    for n, eps in itertools.product((4, 64, 1024, 4096), (0.01, 0.05, 0.2)):
        for i in (1, 2, n):
            dist = make_pne(n, eps, i)
            cover = greedy_packing_cover(ProjectionClass(n), dist, 2.0 * eps)
            sizes_ok &= cover.size == 2
            a, b = cover.members
            worst_pair = max(
                worst_pair,
                abs(disagreement_exact_projections(dist, a, b) - 0.5),
            )
            worst_cert = max(worst_cert, abs(cover.certificate - 2 * eps * (1 - eps)))
    ok = sizes_ok and worst_pair <= 1e-12 and worst_cert <= 1e-12
    report(2, "small cover", ok,
           f"size 2 on the whole grid; |d(members)-1/2| <= {worst_pair:.2e}, "
           f"|cert-2eps(1-eps)| <= {worst_cert:.2e} (tol 1e-12)")


def test_criterion_3_distribution_dependent_flatness(pool):
    eps, eps_acc, delta, trials = 0.05, 0.2, 0.1, 4000
    m_corollary = corollary_m(eps, delta)
    assert m_corollary == 719
    failures_ok = True
    details = []
    m_stars = []
    for k, n in enumerate((2**4, 2**8, 2**12, 2**16)):
        cfg = TrialConfig(
            concept_class=ProjectionClass(n),
            dist=PneFamily(n, eps),
            target=RandomPair(),
            learner="cover",
            m=m_corollary,
            eps_acc=eps_acc,
            trials=trials,
            seed=RngSeed(SEED).substream(300 + k),
        )
        est = estimate_failure_prob(cfg, pool)
        failures_ok &= est.estimate <= delta + est.radius
        search = sample_complexity_search(cfg, delta, 512, pool)
        m_stars.append(search.m_star)
        details.append(f"n=2^{n.bit_length()-1}: fail@719={est.estimate:.4f} m*={search.m_star}")
    ratio = max(m_stars) / min(m_stars)
    ok = failures_ok and ratio <= 2.0
    report(3, "flatness", ok, "; ".join(details) + f"; m* spread x{ratio:.2f} (<= 2)")


def test_criterion_4_lower_bound_reproduction(pool):
    n, eps, trials = 1 << 17, 0.2, 20000
    assert lower_bound_m(n, eps) == 2
    t0 = time.perf_counter()
    bayes = lower_bound_experiment(
        lower_bound_config(n, eps, "bayes-posterior", trials, RngSeed(SEED), gamma=0.01), pool
    )
    erm_est = lower_bound_experiment(
        lower_bound_config(n, eps, "erm", trials, RngSeed(SEED + 1), gamma=0.01), pool
    )
    elapsed = time.perf_counter() - t0
    ok = bayes.lower > 1 / 16 and erm_est.lower > 1 / 16 and elapsed < 120.0
    report(4, "lower bound", ok,
           f"Pr[d>1/16]: bayes={bayes.estimate:.4f} (ci_low {bayes.lower:.4f}), "
           f"erm={erm_est.estimate:.4f} (ci_low {erm_est.lower:.4f}) > 0.0625; "
           f"{elapsed:.0f}s (< 120s)")


def test_criterion_5_ks_concentration(pool):
    n, eps, trials = 1 << 17, 0.2, 20000
    summary = ks_statistics_experiment(
        PneFamily(n, eps), lower_bound_m(n, eps), trials, RngSeed(SEED + 2), pool=pool
    )
    ratio_ok = summary.ratio_in_band.estimate >= 0.5 - 0.02
    tail_ok = summary.k_tail.estimate >= 0.75 - 0.02
    ok = ratio_ok and tail_ok
    report(5, "K/S concentration", ok,
           f"Pr[S/K in band]={summary.ratio_in_band.estimate:.4f} (>= 0.48), "
           f"Pr[K >= n^(2/3)/2]={summary.k_tail.estimate:.4f} (>= 0.73)")


def test_criterion_6_separation_curve(tmp_path):
    out = tmp_path / "separation.csv"
    runner = CliRunner()
    t0 = time.perf_counter()
    res = runner.invoke(
        cli_main,
        ["--seed", str(SEED), "--threads", "0", "--out", str(out), "separation"],
    )
    elapsed = time.perf_counter() - t0
    assert res.exit_code == 0, res.output
    rows = list(csv.DictReader(out.open()))
    m_star = {(r["learner"], int(r["n"])): int(r["m_star"]) for r in rows}
    erm_low, erm_high = m_star[("erm", 2**4)], m_star[("erm", 2**16)]
    cover_vals = [v for (lrn, _), v in m_star.items() if lrn == "cover"]
    cover_ratio = max(cover_vals) / min(cover_vals)
    ok = erm_high >= 2 * erm_low and cover_ratio <= 1.5
    report(6, "separation curve", ok,
           f"erm m*: {erm_low} @ 2^4 -> {erm_high} @ 2^16 (x{erm_high/erm_low:.2f} >= 2); "
           f"cover m* spread x{cover_ratio:.2f} (<= 1.5); {elapsed:.0f}s")


def test_criterion_7_no_gap_invariant(pool):
    trials = 5000
    total_violations = 0
    cells = 0
    for d in (4, 8, 12):
        domain = enumerated_domain(d)
        for dist in (uniform_finite(domain), geometric_finite(domain)):
            rows = no_gap_experiment(
                no_gap_configs(dist, [1, d, 2 * d], trials, 0.1,
                               RngSeed(SEED).substream(700 + d)),
                pool=pool,
            )
            for row in rows:
                cells += 1
                total_violations += row.violations
                assert row.fail_rate.estimate <= row.z_ge_rate.estimate
    ok = total_violations == 0
    report(7, "no-gap invariant", ok,
           f"0 violations of d <= Z across {cells} cells x {trials} trials "
           f"(exact rational arithmetic)")


def test_criterion_8_formula_suite():
    sauer_ok = all(
        sauer_bound(k, d) <= sauer_estimate(k, d)
        for k in range(1, 61)
        for d in range(1, min(k, 20) + 1)
    )
    grid = np.linspace(0.005, 0.995, 100)
    kl_ok = all(kl_lower_bound_check(x, y) for x in grid for y in grid)

    tail_ok = True
    for learner, m in (("erm", 0), ("erm", 6), ("bayes-posterior", 2)):
        cfg = TrialConfig(
            concept_class=ProjectionClass(128),
            dist=PneFamily(128, 0.1),
            target=RandomPair(),
            learner=learner,
            m=m,
            eps_acc=1 / 16,
            trials=500,
            seed=RngSeed(SEED).substream(800 + m),
        )
        errors, _ = run_trials(cfg)
        for t in (0.0, 1 / 16, 0.25, 0.75):
            tail_ok &= tail_inequality_check(errors, t)

    rng = np.random.default_rng(SEED)
    bayes_ok = True
    for _ in range(1000):
        table = rng.random((4, 2))
        table /= table.sum()
        table /= table.sum()
        _, err = bayes_bit_predictor(table)
        best = min(
            float(table[np.arange(4), 1 - np.array(f)].sum())
            for f in itertools.product((0, 1), repeat=4)
        )
        bayes_ok &= err == best
    ok = sauer_ok and kl_ok and tail_ok and bayes_ok
    report(8, "formula suite", ok,
           f"sauer grid: {sauer_ok}; KL 100x100 grid: {kl_ok}; "
           f"tail inequality on all error batches: {tail_ok}; "
           f"bit-predictor = exhaustive min on 1000 tables: {bayes_ok}")


def test_criterion_9_reproducibility(tmp_path):
    runner = CliRunner()
    combos = [
        ("learn", ["learn", "--n", "64", "--eps", "0.1", "--m", "4", "--trials", "300"]),
        ("no-gap", ["no-gap", "--domain-size", "4", "--m-grid", "1,3", "--trials", "200"]),
        ("ks-stats", ["ks-stats", "--n", "256", "--eps", "0.2", "--trials", "200"]),
    ]
    ok = True
    for name, args in combos:
        bodies = []
        for tag, threads in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / f"{name}-{tag}.csv"
            res = runner.invoke(
                cli_main,
                ["--seed", str(SEED), "--threads", threads, "--out", str(out)] + args,
            )
            assert res.exit_code == 0, res.output
            bodies.append(out.read_bytes())
        ok &= bodies[0] == bodies[1] == bodies[2]
    report(9, "reproducibility", ok,
           "byte-identical CSV bodies across reruns and --threads 1/2 "
           "for learn, no-gap, ks-stats")
