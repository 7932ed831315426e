"""Reference oracles the tests check gaplab against.

No command runs these.  Each is a direct, slow transcription of a definition
(a point's probability, the posterior over the hidden index, the rule that
thresholds it, a Monte Carlo disagreement, the greedy packing scan and its
pairwise distance oracle, the sample-size search with every point run to its
full count, the scalar seed of a trial, a whole table-class trial), so that
the fast paths of the package can be compared with it, or a formula the
paper's proofs use (the optimal single-bit predictor, Bernoulli KL and its
quadratic lower bound, the tail inequality of the no-gap argument), so that
the acceptance tests can check it numerically.  `Point` is one hypercube point, the scalar form these
oracles read and write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from gaplab.concepts import (
    ConceptClass,
    PointSet,
    ProjectionClass,
    TableClass,
    bit_string,
    full_hypercube,
    packed_column,
    row_keys,
    unpack_bit_rows,
    words_needed,
)
from gaplab.distributions import (
    GOLDEN64,
    Distribution,
    FiniteSupportDistribution,
    ProductLaw,
    RngSeed,
    missing_mass_fraction,
    mix64,
    sample_bit_matrix,
    sample_support_indices,
)
from gaplab.errors import (
    DimensionMismatchError,
    InconsistentSampleError,
    InvalidParameterError,
    OracleUnavailableError,
    SearchBracketError,
)
from gaplab.learners import LabeledSample, posterior_mean_label
from gaplab.mc_harness import (
    FixedTarget,
    MEstimate,
    SampleComplexityResult,
    TrialConfig,
    estimate_failure_prob,
)
from gaplab.metric_cover import (
    CoverResult,
    EstimateWithCI,
    check_same_n,
    disagreement_enumerate,
    disagreement_exact_projections,
)


@dataclass(frozen=True)
class Point:
    """A point of the Boolean hypercube {0,1}^n, held as its 0/1 string."""

    bits: str

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "Point":
        return cls("".join(str(int(b)) for b in bits))

    from_string = from_bits

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def words(self) -> np.ndarray:
        return PointSet([self.bits]).rows[0]

    def bit(self, j: int) -> int:
        """Coordinate x[j], 1-based."""
        if not 1 <= j <= self.n:
            raise DimensionMismatchError(f"coordinate {j} out of range 1..{self.n}")
        return int(self.bits[j - 1])


def trial_seed(seed: RngSeed, index: int) -> int:
    """The 64-bit seed of trial `index`, one trial at a time: seed.generator(index)
    is PCG64 of it."""
    base = mix64(seed.master ^ mix64(seed.stream))
    return mix64(base ^ ((index & 0xFFFFFFFFFFFFFFFF) * GOLDEN64 & 0xFFFFFFFFFFFFFFFF))


def empty_sample(n: int) -> LabeledSample:
    """The labelled sample of no points of {0,1}^n."""
    return LabeledSample(np.zeros((0, words_needed(n)), dtype=np.uint64),
                         np.zeros(0, dtype=np.uint8), n)


def reference_table_trial(cfg: TrialConfig, t: int) -> tuple[float, int]:
    """(error, failed) of trial t of a table-class config, one point at a time.

    The generator is PCG64 of the trial's seed.  It draws the target, unless
    it is fixed, then m points, each by inversion of the cumulative masses,
    whose tail from the last point of positive mass on is +inf.  Each
    concept's value on a point is looked up by the point's place in the
    domain.  ERM takes the concept of fewest mistakes, cover the member of
    fewest, ties to the lowest index; the memorizer is a dict of the drawn
    points' labels.  The error is the mass of the support points the choice
    gets wrong, added in support order.
    """
    cls, dist = cfg.concept_class, cfg.dist
    gen = np.random.Generator(np.random.PCG64(trial_seed(cfg.seed, t)))
    if isinstance(cfg.target, FixedTarget):
        target = cfg.target.index
    else:
        target = int(gen.integers(1, cls.num_concepts + 1))
    cum = np.cumsum(dist.probs)
    cum[np.flatnonzero(dist.probs)[-1]:] = np.inf
    drawn = np.searchsorted(cum, gen.random(cfg.m), side="right").tolist()

    domain, support = cls.domain.to_strings(), dist.support.to_strings()

    def value(i: int, x: str) -> int:
        return (cls.table_mask(i) >> domain.index(x)) & 1

    truth = [value(target, x) for x in support]
    if cfg.learner == "memorizer":
        memory = {support[u]: truth[u] for u in drawn}
        predicted = [memory.get(x, cfg.memorizer_default) for x in support]
    else:
        concepts = range(1, cls.num_concepts + 1)
        mistakes = {i: sum(value(i, support[u]) != truth[u] for u in drawn) for i in concepts}
        candidates = cfg.cover.members if cfg.learner == "cover" else concepts
        chosen = min(candidates, key=lambda i: (mistakes[i], i))
        predicted = [value(chosen, x) for x in support]
    error = 0.0
    for p, y, want in zip(dist.probs.tolist(), predicted, truth):
        if y != want:
            error += p
    return error, int(error > cfg.eps_acc)


def eval_concept(cls: ConceptClass, i: int, x: Point) -> int:
    """Value of concept i on a point: x[i] for projections, table lookup otherwise."""
    if isinstance(cls, ProjectionClass):
        cls.concept(i)
        if x.n != cls.n:
            raise DimensionMismatchError(f"point has n={x.n}, class has n={cls.n}")
        return x.bit(i)
    mask = cls.table_mask(i)
    return (mask >> cls.domain.find(row_keys(x.words[None, :], x.n))[0]) & 1


def is_shattered(cls: ConceptClass, points: Sequence[Point]) -> bool:
    """Whether every one of the 2^|points| label patterns is realized by some concept."""
    k = len(points)
    if k > 30:
        raise InvalidParameterError("shatter check is exhaustive; at most 30 points")
    if k == 0:
        return True
    target = 1 << k
    realized: set[int] = set()
    for i in range(1, cls.num_concepts + 1):
        pattern = 0
        for t, p in enumerate(points):
            if eval_concept(cls, i, p):
                pattern |= 1 << t
        realized.add(pattern)
        if len(realized) == target:
            return True
    return False


def row_points(rows: np.ndarray, n: int) -> list[Point]:
    """The Points of the n-bit rows of a packed (rows, words) matrix."""
    return [Point(bit_string(row, n)) for row in rows]


def hypercube_points(n: int) -> list[Point]:
    """All 2^n Points of {0,1}^n, in full_hypercube's row order."""
    return row_points(full_hypercube(n), n)


def sample_points(dist: Distribution, m: int, seed: RngSeed) -> list[Point]:
    """m i.i.d. points from trial 0 of the seed's stream."""
    gen = seed.generator(0)
    if isinstance(dist, ProductLaw):
        words = sample_bit_matrix(dist, m, gen)
        return row_points(words, dist.n)
    idx = sample_support_indices(dist, m, gen)
    return row_points(dist.support.rows[idx], dist.n)


def point_prob(dist: Distribution, x: Point) -> float:
    """Exact probability of a single point."""
    if x.n != dist.n:
        raise DimensionMismatchError(f"point has n={x.n}, distribution has n={dist.n}")
    if isinstance(dist, ProductLaw):
        bits = unpack_bit_rows(x.words, x.n)[0].astype(bool)
        return float(np.prod(np.where(bits, dist.marginals, 1.0 - dist.marginals)))
    support = row_points(dist.support.rows, dist.n)
    return float(dist.probs[support.index(x)]) if x in support else 0.0


def missing_mass(dist: FiniteSupportDistribution, observed: Iterable[Point]) -> float:
    """Mass of the support points not observed; an observed point off the
    support covers nothing."""
    support = row_points(dist.support.rows, dist.n)
    return float(missing_mass_fraction(dist, [support.index(x) for x in observed
                                              if x in support]))


def empirical_error(cls: ConceptClass, i: int, sample: LabeledSample) -> Fraction:
    """err_T(c_i): the fraction of sample labels concept i gets wrong; 0 on empty samples."""
    if not len(sample.labels):
        return Fraction(0)
    mistakes = sum(eval_concept(cls, i, x) != y for x, y in
                   zip(row_points(sample.words, sample.n), sample.labels))
    return Fraction(int(mistakes), len(sample.labels))


def k_set_indices(sample: LabeledSample) -> np.ndarray:
    """Sorted 1-based coordinates whose column equals the labels."""
    mask = sample.column_match_mask()
    bits = unpack_bit_rows(mask, sample.n)[0]
    return np.flatnonzero(bits).astype(np.int64) + 1


@dataclass(frozen=True)
class PosteriorState:
    """What the posterior rule retains from a sample: the candidate index set.

    k_set holds the 1-based coordinates whose sample column equals the label
    vector; eps is the off-coordinate marginal of the distribution family;
    m is the sample size and n the ambient dimension.
    """

    k_set: tuple[int, ...]
    eps: float
    m: int
    n: int

    def __post_init__(self):
        if not self.k_set:
            raise InconsistentSampleError("no column matches the labels")
        if list(self.k_set) != sorted(set(self.k_set)):
            raise InvalidParameterError("k_set must be sorted and duplicate-free")
        if not 0.0 < self.eps < 0.5:
            raise InvalidParameterError(f"eps must lie in (0, 1/2), got {self.eps}")

    @property
    def k_size(self) -> int:
        return len(self.k_set)


def posterior_state(sample: LabeledSample, eps: float) -> PosteriorState:
    idx = k_set_indices(sample)
    if idx.size == 0:
        raise InconsistentSampleError(
            "sample is inconsistent with every projection (empty candidate set)"
        )
    return PosteriorState(tuple(int(i) for i in idx), eps, len(sample.labels), sample.n)


def posterior_over_index(sample: LabeledSample) -> list[tuple[int, float]]:
    """Posterior of the hidden index given (X, Y): uniform on the matching columns."""
    idx = k_set_indices(sample)
    if idx.size == 0:
        raise InconsistentSampleError(
            "sample is inconsistent with every projection (empty candidate set)"
        )
    w = 1.0 / idx.size
    return [(int(i), w) for i in idx]


def bayes_posterior_predict(state: PosteriorState, z: Point) -> int:
    """Threshold the posterior mean at 1/2 (ties predict 1)."""
    if z.n != state.n:
        raise DimensionMismatchError(f"point has n={z.n}, state has n={state.n}")
    s = sum(z.bit(i) for i in state.k_set)
    return 1 if posterior_mean_label(state.k_size, s, state.eps) >= 0.5 else 0


def disagreement_mc(
    cls: ConceptClass,
    dist: Distribution,
    a: int,
    b: int,
    trials: int,
    gamma: float,
    seed: RngSeed,
) -> EstimateWithCI:
    """Unbiased Monte Carlo estimate of the disagreement, for cross-validation only."""
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    gen = seed.generator(0)
    if isinstance(cls, ProjectionClass) and isinstance(dist, ProductLaw):
        words = sample_bit_matrix(dist, trials, gen)
        ca, cb = packed_column(words, a), packed_column(words, b)
        count = int(np.count_nonzero(ca != cb))
    elif isinstance(cls, TableClass) and isinstance(dist, FiniteSupportDistribution):
        idx = sample_support_indices(dist, trials, gen)
        pos = np.array(cls.domain.find(dist.support.keys()), dtype=np.uint64)[idx]
        ta = np.uint64(cls.table_mask(a))
        tb = np.uint64(cls.table_mask(b))
        count = int(np.count_nonzero(((ta >> pos) ^ (tb >> pos)) & np.uint64(1)))
    else:
        raise OracleUnavailableError(
            f"cannot sample {type(cls).__name__} under {type(dist).__name__}"
        )
    return EstimateWithCI.from_count(count, trials, gamma)


def greedy_cover_scan(
    cls: ConceptClass, distance: Callable[[int, int], float], eps: float
) -> CoverResult:
    """The greedy packing scan one pair at a time: a concept joins iff its
    distance to every member so far exceeds eps; the certificate is
    max_c min_member distance(c, member)."""
    concepts = range(1, cls.num_concepts + 1)
    members: list[int] = []
    for i in concepts:
        if all(distance(i, m) > eps for m in members):
            members.append(i)
    certificate = max(min(distance(i, m) for m in members) for i in concepts)
    return CoverResult(tuple(members), float(eps), float(certificate))


def exact_distance_fn(
    cls: ConceptClass, dist: Distribution
) -> Callable[[int, int], float]:
    """The exact disagreement oracle for a class/distribution pairing, one
    pair at a time."""
    if isinstance(cls, ProjectionClass) and isinstance(dist, ProductLaw):
        check_same_n(cls, dist)
        return lambda a, b: disagreement_exact_projections(dist, a, b)
    if isinstance(cls, TableClass) and isinstance(dist, FiniteSupportDistribution):
        # raises PointNotInDomainError if a support point is not in the domain
        positions = cls.domain.find(dist.support.keys())
        return lambda a, b: disagreement_enumerate(cls, dist, a, b, positions)
    raise OracleUnavailableError(
        f"no exact oracle for {type(cls).__name__} under {type(dist).__name__}"
    )


def bayes_bit_predictor(joint: np.ndarray) -> tuple[np.ndarray, float]:
    """Best deterministic bit predictor from a finite joint table Pr[U=u, V=v].

    joint has shape (|U|, 2).  Returns the per-u majority predictions (ties
    predict 1) and the resulting error, which equals
    sum_u min(Pr[u, 0], Pr[u, 1]) and lower-bounds every predictor.
    """
    joint = np.ascontiguousarray(joint, dtype=np.float64)
    if joint.ndim != 2 or joint.shape[1] != 2 or joint.shape[0] < 1:
        raise InvalidParameterError("joint table must have shape (|U|, 2)")
    if np.any(joint < 0.0) or abs(float(joint.sum()) - 1.0) > 1e-9:
        raise InvalidParameterError("joint table must be non-negative and sum to 1")
    predictions = (joint[:, 1] >= joint[:, 0]).astype(np.uint8)
    error = float(np.minimum(joint[:, 0], joint[:, 1]).sum())
    return predictions, error


def kl_bernoulli(x: float, y: float) -> float:
    """KL(x || y) between Bernoulli parameters, with the 0 log 0 = 0 convention."""
    if not 0.0 <= x <= 1.0 or not 0.0 <= y <= 1.0:
        raise InvalidParameterError("KL arguments must lie in [0, 1]")
    if x == y:
        return 0.0
    total = 0.0
    if x > 0.0:
        if y == 0.0:
            return math.inf
        total += x * math.log(x / y)
    if x < 1.0:
        if y == 1.0:
            return math.inf
        total += (1.0 - x) * math.log((1.0 - x) / (1.0 - y))
    return total


def kl_lower_bound_check(x: float, y: float) -> bool:
    """Whether KL(x || y) >= (x - y)^2 / (2 max{x, y})."""
    if x == y:
        return True
    return kl_bernoulli(x, y) >= (x - y) ** 2 / (2.0 * max(x, y))


def tail_inequality_check(values: Sequence[float], t: float) -> bool:
    """Verify Pr[V > t] >= (E[V] - t) / (1 - t) on the empirical distribution.

    Holds for any distribution supported on (-inf, 1]; evaluated in exact
    rational arithmetic so the check is tolerance-free.
    """
    if not 0.0 <= t < 1.0:
        raise InvalidParameterError("t must lie in [0, 1)")
    vals = list(values)
    if not vals:
        raise InvalidParameterError("need at least one value")
    for v in vals:
        if v > 1.0:
            raise InvalidParameterError(f"value {v} exceeds 1")
    n = len(vals)
    t_frac = Fraction(float(t))
    mean = sum((Fraction(float(v)) for v in vals), Fraction(0)) / n
    prob_gt = Fraction(sum(1 for v in vals if Fraction(float(v)) > t_frac), n)
    return prob_gt >= (mean - t_frac) / (1 - t_frac)


def full_count_search(cfg: TrialConfig, delta: float, m_max: int) -> SampleComplexityResult:
    """The sample-size search with every tested m run to all cfg.trials
    trials: doubling to a success, then bisection, each m on its own seed
    substream.  Success means the failure CI upper bound is <= delta, fail
    that its lower bound is > delta, anything else is unresolved and moves
    the bisection right without confirming a bracket edge."""
    evaluated: dict[int, MEstimate] = {}

    def evaluate(m: int) -> MEstimate:
        if m not in evaluated:
            est = estimate_failure_prob(replace(cfg, m=m, seed=cfg.seed.substream(m)))
            status = ("success" if est.upper <= delta
                      else "fail" if est.lower > delta else "unresolved")
            evaluated[m] = MEstimate(m, est, status, cfg.trials)
        return evaluated[m]

    confirmed_lo, hi, m = 0, None, 1
    while m <= m_max:
        e = evaluate(m)
        if e.status == "success":
            hi = m
            break
        if e.status == "fail":
            confirmed_lo = m
        m *= 2
    if hi is None:
        raise SearchBracketError(f"no m <= {m_max} reached a failure CI upper bound <= {delta}")
    if hi == 1 and evaluate(0).status == "success":
        hi = 0
    soft_lo = min(confirmed_lo, hi - 1) if hi > 0 else -1
    while hi - soft_lo > 1:
        mid = (soft_lo + hi) // 2
        e = evaluate(mid)
        if e.status == "success":
            hi = mid
        else:
            if e.status == "fail":
                confirmed_lo = mid
            soft_lo = mid
    per_m = tuple(evaluated[k] for k in sorted(evaluated))
    return SampleComplexityResult(hi, (confirmed_lo, hi), per_m)
