"""Disagreement pseudo-metric, greedy packing covers, and the cover/sample-size formulas."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .concepts import ConceptClass, ProjectionClass, TableClass
from .distributions import (
    Distribution,
    FiniteSupportDistribution,
    PneFamily,
    PneMember,
    ProductLaw,
)
from .errors import (DimensionMismatchError, InvalidParameterError, OracleUnavailableError,
                     spec_value)


def hoeffding_radius(trials: int, gamma: float) -> float:
    """Two-sided Hoeffding deviation at confidence 1 - gamma for a [0,1] mean."""
    return math.sqrt(math.log(2.0 / gamma) / (2.0 * trials))


@dataclass(frozen=True)
class EstimateWithCI:
    """A Monte Carlo probability estimate with a two-sided Hoeffding radius."""

    estimate: float
    radius: float
    trials: int
    gamma: float

    @classmethod
    def from_count(cls, count: int, trials: int, gamma: float) -> "EstimateWithCI":
        return cls(count / trials, hoeffding_radius(trials, gamma), trials, gamma)

    @property
    def lower(self) -> float:
        return max(0.0, self.estimate - self.radius)

    @property
    def upper(self) -> float:
        return min(1.0, self.estimate + self.radius)


@dataclass(frozen=True)
class CoverResult:
    """A greedy packing (hence cover) at a given level, with a verification certificate.

    certificate is the maximum over all concepts of the distance to the
    nearest member; it is at most `level` whenever the exact verification
    pass ran.  Members are 1-based concept indices in ascending order.
    """

    members: tuple[int, ...]
    level: float
    certificate: float | None = None

    @property
    def size(self) -> int:
        return len(self.members)


def _disagreement(p, q):
    """p(1-q) + (1-p)q, spelled p + q - 2pq: how often independent Bernoulli(p)
    and Bernoulli(q) coordinates differ, for floats or arrays alike."""
    return p + q - 2.0 * p * q


def disagreement_exact_projections(dist: ProductLaw, a: int, b: int) -> float:
    """Pr[X[a] != X[b]] under a product distribution.

    The product form needs independent coordinates, so a == b is handled
    separately (identical concepts never disagree).
    """
    pa = dist.marginal(a)
    pb = dist.marginal(b)
    if a == b:
        return 0.0
    return _disagreement(pa, pb)


def disagreement_enumerate(
    cls: TableClass,
    dist: FiniteSupportDistribution,
    a: int,
    b: int,
    positions: Sequence[int],
) -> float:
    """Exact disagreement mass, summed over the distribution's support in order.

    `positions` are the support's domain positions, oracle_positions(cls, dist).
    """
    diff = cls.table_mask(a) ^ cls.table_mask(b)
    return dist.mass(t for t, pos in enumerate(positions) if (diff >> pos) & 1)


def check_same_n(cls: ProjectionClass, dist: ProductLaw | PneFamily) -> None:
    """Raise DimensionMismatchError unless the class and the law share n."""
    if dist.n != cls.n:
        raise DimensionMismatchError(
            f"the class has n={cls.n}, the distribution has n={dist.n}"
        )


def _distance_rows_projections(dist: ProductLaw, member: int) -> np.ndarray:
    out = _disagreement(dist.marginals, dist.marginal(member))
    out[member - 1] = 0.0
    return out


def _distance_rows_tables(cls: TableClass, weights: np.ndarray, member: int) -> np.ndarray:
    """Distances from `member` to every concept; weights[pos] is the mass at
    domain position pos."""
    diff = cls.table_array() ^ np.uint64(cls.table_mask(member))
    dist_vec = np.zeros(cls.num_concepts, dtype=np.float64)
    for pos in range(cls.domain_size):
        if weights[pos]:
            dist_vec += weights[pos] * ((diff >> np.uint64(pos)) & np.uint64(1))
    return dist_vec


def oracle_positions(cls: ConceptClass, dist: Distribution) -> list[int] | None:
    """Where the support sits in a table class's truth tables under a finite
    law, None for the projections under a product law of the same n; any
    other pair has no exact oracle and raises OracleUnavailableError."""
    if isinstance(cls, ProjectionClass) and isinstance(dist, ProductLaw):
        check_same_n(cls, dist)
        return None
    if isinstance(cls, TableClass) and isinstance(dist, FiniteSupportDistribution):
        return [cls.domain_position(p) for p in dist.support]
    raise OracleUnavailableError(
        f"no exact oracle for {type(cls).__name__} under {type(dist).__name__}"
    )


def greedy_packing_cover(cls: ConceptClass, dist: Distribution, eps: float) -> CoverResult:
    """Maximal packing by an ascending-index greedy scan; it is also an eps-cover.

    A concept is admitted iff its distance to every member so far is
    strictly above eps.  The cover certificate max_c min_member d(c, member)
    is read off the distances to the final members.  cls holds at least one
    concept: the `cover` build step and validate_config refuse an empty one.
    """
    n = cls.num_concepts
    positions = oracle_positions(cls, dist)
    if positions is None:
        distance_row = functools.partial(_distance_rows_projections, dist)
    else:
        weights = np.zeros(cls.domain_size, dtype=np.float64)
        weights[positions] = dist.probs
        distance_row = functools.partial(_distance_rows_tables, cls, weights)
    # Sequential-scan semantics, vectorized: min_dist[j] tracks the
    # distance from concept j+1 to the members admitted so far.
    min_dist = np.full(n, np.inf)
    members: list[int] = []
    for j in range(n):
        if min_dist[j] > eps:
            members.append(j + 1)
            min_dist = np.minimum(min_dist, distance_row(j + 1))
    return CoverResult(tuple(members), float(eps), float(min_dist.max()))


def pne_small_cover(dist: PneMember, level: float | None = None) -> CoverResult:
    """The greedy cover of the projections under P_i, in closed form.

    Matches greedy_packing_cover(C_n, P_i, level) exactly, members, level
    and certificate; level defaults to 2*eps.  Two Bernoulli(eps)
    coordinates lie d_off apart and the fair coin lies d_half from each of
    them (by _disagreement, as in the scan).  When d_half > level the scan
    admits c_1 and the first concept at d_half from it ({c_1, c_i}, or
    {c_1, c_2} for i = 1), and every concept if d_off > level too; else it
    admits c_1 alone.
    """
    n, eps, i = dist.n, dist.eps, dist.i
    level = 2.0 * eps if level is None else float(level)
    d_off = _disagreement(eps, eps)
    d_half = _disagreement(0.5, eps)
    if d_half > level:
        if d_off > level:
            return CoverResult(tuple(range(1, n + 1)), level, 0.0)
        return CoverResult((1, i if i >= 2 else 2), level, d_off if n > 2 else 0.0)
    # d_off rounds above d_half only for eps within about 4e-9 of 1/2; there
    # the scan can still admit the Bernoulli(eps) coordinates after c_1.
    if i == 1 or d_off <= level:
        return CoverResult((1,), level, max(d_half, d_off) if n > 2 and i >= 2 else d_half)
    return CoverResult(tuple(j for j in range(1, n + 1) if j != i), level, d_half)


def build_cover(cls: ConceptClass, dist: Distribution, level: float | None) -> CoverResult:
    """The greedy packing cover of cls under dist at `level`: pne_small_cover's
    closed form for a pne member (level None is 2*eps), else the scan.  The
    caller has checked the pairing with oracle_positions."""
    if isinstance(dist, PneMember):
        return pne_small_cover(dist, level)
    return greedy_packing_cover(cls, dist, level)


_MAX_DIGITS = 4300  # Python's default cap on the digits of an int written as text


def sauer_bound(sample_size: int, d: int) -> int:
    """Sum of binomial coefficients C(K, 0) + ... + C(K, d), exactly; refused before
    summing if its bound (d + 1) C(K, j), j = min(d, K // 2), may pass _MAX_DIGITS digits.
    C(K, j) <= exp(j ln(K/j) + (K-j) ln(1 + j/(K-j))) is used, not a difference
    of math.lgamma values, which cancels to 0 near K = 2^63."""
    j = min(d, sample_size // 2)
    rest = sample_size - j
    log_top = j * math.log(sample_size / j) + rest * math.log1p(j / rest) if j else 0.0
    if math.log10(d + 1) + log_top / math.log(10) > _MAX_DIGITS:
        raise InvalidParameterError(
            f"the Sauer sum for K={sample_size}, d={d} may pass {_MAX_DIGITS} digits"
        )
    total = term = 1
    for i in range(min(d, sample_size)):
        term = term * (sample_size - i) // (i + 1)  # C(K, i + 1) from C(K, i)
        total += term
    return total


def sauer_estimate(sample_size: int, d: int) -> float:
    """The (Ke/d)^d upper estimate for the binomial sum; needs K >= d >= 1."""
    if d < 1:
        raise InvalidParameterError("the estimate needs d >= 1")
    if sample_size < d:
        raise InvalidParameterError("the estimate needs sample_size >= d")
    return _exp_or_inf(d * (1.0 + math.log(sample_size) - math.log(d)))


def _exp_or_inf(x: float) -> float:
    """e^x, or inf where the float overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


class DudleyBound(NamedTuple):
    value: float
    log_value: float


def dudley_cover_bound(eps: float, d: int) -> DudleyBound:
    """(4e/eps)^(d/(1-1/e)) cover-size bound, with its natural log alongside."""
    spec_value("eps", eps)
    exponent = d / (1.0 - 1.0 / math.e)
    log_value = exponent * math.log(4.0 * math.e / eps)
    return DudleyBound(_exp_or_inf(log_value), log_value)


def benedek_itai_m(cover_size: int, eps: float, delta: float) -> int:
    """Labeled examples sufficient for the cover learner: ceil(48(ln N + ln(1/delta))/eps)."""
    spec_value("cover_size", cover_size)
    spec_value("eps", eps)
    return math.ceil(48.0 * (math.log(cover_size) + math.log(1.0 / delta)) / eps)


def corollary_m(eps: float, delta: float) -> int:
    """ceil(12 ln(2/delta)/eps): the size-2-cover specialisation at accuracy 4*eps."""
    if not 0.0 < eps < 0.5:
        raise InvalidParameterError(f"eps must lie in (0, 1/2), got {eps}")
    return math.ceil(12.0 * math.log(2.0 / delta) / eps)
