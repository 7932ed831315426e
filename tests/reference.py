"""Reference oracles the tests check gaplab against.

No command runs these.  Each is a direct, slow transcription of a definition
(a point's probability, the posterior over the hidden index, the rule that
thresholds it, a Monte Carlo disagreement, the greedy packing scan and its
pairwise distance oracle), so that the fast paths of the package can be
compared with it, or a formula the paper's proofs use (the optimal
single-bit predictor, Bernoulli KL and its quadratic lower bound, the tail
inequality of the no-gap argument), so that the acceptance tests can check
it numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from gaplab.concepts import (
    ConceptClass,
    Point,
    ProjectionClass,
    TableClass,
    full_hypercube,
    packed_column,
    unpack_bit_rows,
)
from gaplab.distributions import (
    Distribution,
    FiniteSupportDistribution,
    ProductLaw,
    RngSeed,
    missing_mass_fraction,
    sample_bit_matrix,
    sample_support_indices,
)
from gaplab.errors import (
    DimensionMismatchError,
    InconsistentSampleError,
    InvalidParameterError,
    OracleUnavailableError,
)
from gaplab.learners import LabeledSample, posterior_mean_label
from gaplab.metric_cover import (
    CoverResult,
    EstimateWithCI,
    check_same_n,
    disagreement_enumerate,
    disagreement_exact_projections,
)


def eval_concept(cls: ConceptClass, i: int, x: Point) -> int:
    """Value of concept i on a point: x[i] for projections, table lookup otherwise."""
    if isinstance(cls, ProjectionClass):
        cls.concept(i)
        if x.n != cls.n:
            raise DimensionMismatchError(f"point has n={x.n}, class has n={cls.n}")
        return x.bit(i)
    mask = cls.table_mask(i)
    return (mask >> cls.domain_position(x)) & 1


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
    return [Point(row.copy(), n) for row in rows]


def hypercube_points(n: int) -> list[Point]:
    """All 2^n Points of {0,1}^n, in full_hypercube's row order."""
    return row_points(full_hypercube(n), n)


def sample_points(dist: Distribution, m: int, seed: RngSeed) -> list[Point]:
    """m i.i.d. points from trial 0 of the seed's stream."""
    gen = seed.generator(0)
    if isinstance(dist, ProductLaw):
        words = sample_bit_matrix(dist, m, gen)
        return [Point(words[r].copy(), dist.n) for r in range(m)]
    idx = sample_support_indices(dist, m, gen)
    return [dist.support[int(t)] for t in idx]


def point_prob(dist: Distribution, x: Point) -> float:
    """Exact probability of a single point."""
    if x.n != dist.n:
        raise DimensionMismatchError(f"point has n={x.n}, distribution has n={dist.n}")
    if isinstance(dist, ProductLaw):
        bits = unpack_bit_rows(x.words, x.n)[0].astype(bool)
        return float(np.prod(np.where(bits, dist.marginals, 1.0 - dist.marginals)))
    if x not in dist.support:
        return 0.0
    return float(dist.probs[dist.support.index(x)])


def missing_mass(dist: FiniteSupportDistribution, observed: Iterable[Point]) -> float:
    """Mass of the support points not observed; an observed point off the
    support covers nothing."""
    seen = [dist.support.index(x) for x in observed if x in dist.support]
    return float(missing_mass_fraction(dist, seen))


def empirical_error(cls: ConceptClass, i: int, sample: LabeledSample) -> Fraction:
    """err_T(c_i): the fraction of sample labels concept i gets wrong; 0 on empty samples."""
    if sample.m == 0:
        return Fraction(0)
    mistakes = sum(
        eval_concept(cls, i, sample.point(r)) != sample.labels[r] for r in range(sample.m)
    )
    return Fraction(int(mistakes), sample.m)


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
    return PosteriorState(tuple(int(i) for i in idx), eps, sample.m, sample.n)


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
        pos = np.array([cls.domain_position(p) for p in dist.support], dtype=np.uint64)[idx]
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
        positions = [cls.domain_position(p) for p in dist.support]
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
