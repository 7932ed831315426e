"""Product and finite-support distributions over the hypercube, sampling, missing mass.

Randomness is counter-based: every trial derives its own 64-bit seed as a
pure function of (master seed, stream id, trial index) through a splitmix64
finalizer, so trials can run in any order or on any worker without changing
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .concepts import Point, pack_bit_rows, words_needed
from .errors import DimensionMismatchError, InvalidParameterError

_MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN64 = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer: a 64-bit avalanche permutation."""
    x = (x + GOLDEN64) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngSeed:
    """Master seed plus a stream id; per-trial seeds derive from both."""

    master: int
    stream: int = 0

    def __post_init__(self):
        for name in ("master", "stream"):
            v = getattr(self, name)
            if not 0 <= v <= _MASK64:
                raise InvalidParameterError(f"{name} must be an unsigned 64-bit integer")

    def substream(self, tag: int) -> "RngSeed":
        """A derived stream, used to give each sweep point independent randomness."""
        return RngSeed(self.master, mix64(self.stream ^ mix64(tag & _MASK64)))

    def trial_seed(self, index: int) -> int:
        base = mix64(self.master ^ mix64(self.stream))
        return mix64(base ^ ((index & _MASK64) * GOLDEN64 & _MASK64))

    def generator(self, index: int = 0) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.trial_seed(index)))

    def to_json_dict(self) -> dict:
        return {"master": self.master, "stream": self.stream}


def _as_generator(seed: "RngSeed | np.random.Generator") -> np.random.Generator:
    if isinstance(seed, RngSeed):
        return seed.generator(0)
    return seed


@dataclass(frozen=True)
class ProductDistribution:
    """Independent per-coordinate Bernoulli marginals over {0,1}^n."""

    marginals: np.ndarray
    pne: tuple[int, float, int] | None = field(default=None, compare=False)

    def __post_init__(self):
        m = np.ascontiguousarray(self.marginals, dtype=np.float64)
        if m.ndim != 1 or m.size == 0:
            raise InvalidParameterError("marginals must be a non-empty vector")
        if np.any(m < 0.0) or np.any(m > 1.0):
            raise InvalidParameterError("marginals must lie in [0, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "marginals", m)

    @classmethod
    def _prevalidated(
        cls, marginals: np.ndarray, pne: tuple[int, float, int] | None = None
    ) -> "ProductDistribution":
        """Wrap a read-only float64 vector already known to lie in [0, 1]."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "marginals", marginals)
        object.__setattr__(dist, "pne", pne)
        return dist

    @property
    def n(self) -> int:
        return int(self.marginals.size)

    def marginal(self, j: int) -> float:
        if not 1 <= j <= self.n:
            raise InvalidParameterError(f"coordinate {j} out of range 1..{self.n}")
        return float(self.marginals[j - 1])

    def to_json_dict(self) -> dict:
        if self.pne is not None:
            n, eps, i = self.pne
            return {"kind": "pne", "n": n, "eps": eps, "i": i}
        return {"kind": "product", "marginals": [float(p) for p in self.marginals]}


def make_pne(n: int, eps: float, i: int) -> ProductDistribution:
    """P_i from the family P_{n,eps}: a fair coin at coordinate i, Bernoulli(eps) elsewhere."""
    return PneFamily(n, eps).member(i)


@dataclass(frozen=True)
class PneFamily:
    """The whole family {P_1 .. P_n}; concrete members are made per trial."""

    n: int
    eps: float

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameterError("the family needs n >= 2")
        if not 0.0 < self.eps < 0.5:
            raise InvalidParameterError(f"eps must lie in (0, 1/2), got {self.eps}")

    def __getstate__(self) -> dict:
        # The cached base vector (8 n bytes) is rebuilt where it is needed.
        return {"n": self.n, "eps": self.eps}

    @cached_property
    def _base_marginals(self) -> np.ndarray:
        base = np.full(self.n, self.eps, dtype=np.float64)
        base.setflags(write=False)
        return base

    def member(self, i: int) -> ProductDistribution:
        """P_i: the family's cached eps vector with coordinate i set to 1/2.

        n and eps were validated with the family, so the member is built
        without checking its marginals again.
        """
        if not 1 <= i <= self.n:
            raise InvalidParameterError(f"special index {i} out of range 1..{self.n}")
        m = self._base_marginals.copy()
        m[i - 1] = 0.5
        m.setflags(write=False)
        return ProductDistribution._prevalidated(m, pne=(self.n, float(self.eps), i))

    def to_json_dict(self) -> dict:
        return {"kind": "pne", "n": self.n, "eps": self.eps}


class FiniteSupportDistribution:
    """A distribution with finite support on an enumerated list of points.

    Every float probability is a dyadic rational, so the probabilities are
    also held exactly as integer numerators over one common denominator:
    probs[t] == Fraction(numerators[t], denominator).
    """

    __slots__ = ("support", "probs", "numerators", "denominator", "_index", "_cum")

    def __init__(self, support: Sequence[Point], probs: Sequence[float]):
        support = tuple(support)
        p = np.ascontiguousarray(probs, dtype=np.float64)
        if len(support) == 0 or p.shape != (len(support),):
            raise InvalidParameterError("support and probs must be non-empty and aligned")
        if np.any(p < 0.0):
            raise InvalidParameterError("probabilities must be non-negative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise InvalidParameterError(f"probabilities sum to {p.sum()}, not 1")
        n = support[0].n
        if any(pt.n != n for pt in support):
            raise DimensionMismatchError("support points must share a dimension")
        index = {pt: t for t, pt in enumerate(support)}
        if len(index) != len(support):
            raise InvalidParameterError("support points must be distinct")
        p.setflags(write=False)
        exact = [Fraction(float(q)) for q in p]
        denominator = math.lcm(*(f.denominator for f in exact))
        self.support = support
        self.probs = p
        self.numerators = tuple(f.numerator * (denominator // f.denominator) for f in exact)
        self.denominator = denominator
        self._index = index
        self._cum = np.cumsum(p)

    @property
    def n(self) -> int:
        return self.support[0].n

    def support_position(self, x: Point) -> int | None:
        return self._index.get(x)

    def to_json_dict(self) -> dict:
        return {
            "kind": "finite",
            "support": [p.to_string() for p in self.support],
            "probs": [float(p) for p in self.probs],
        }


Distribution = ProductDistribution | FiniteSupportDistribution


def distribution_from_json_dict(obj: dict) -> Distribution | PneFamily:
    kind = obj.get("kind")
    if kind == "product":
        return ProductDistribution(np.asarray(obj["marginals"], dtype=np.float64))
    if kind == "pne":
        if "i" in obj and obj["i"] is not None:
            return make_pne(int(obj["n"]), float(obj["eps"]), int(obj["i"]))
        return PneFamily(int(obj["n"]), float(obj["eps"]))
    if kind == "finite":
        support = [Point.from_string(s) for s in obj["support"]]
        return FiniteSupportDistribution(support, obj["probs"])
    raise InvalidParameterError(f"unknown distribution kind {kind!r}")


def sample_bit_matrix(
    dist: ProductDistribution, m: int, gen: np.random.Generator
) -> np.ndarray:
    """(m, words) packed rows of m i.i.d. draws.

    Reference sampling path: one uniform double per coordinate, row-major,
    compared against the coordinate's marginal.  All faster paths must stay
    bit-identical to this consumption order.  A pne member's marginals are
    eps except 1/2 at coordinate i, so its draws are compared against the
    scalar eps and column i is redone against 1/2.
    """
    if m < 0:
        raise InvalidParameterError("sample size must be non-negative")
    u = gen.random((m, dist.n))
    if dist.pne is None:
        bits = u < dist.marginals[None, :]
    else:
        _, eps, i = dist.pne
        bits = u < eps
        bits[:, i - 1] = u[:, i - 1] < 0.5
    return pack_bit_rows(bits.view(np.uint8))


def sample_coordinate_columns(
    dist: ProductDistribution,
    coords: Sequence[int],
    m: int,
    gen: np.random.Generator,
) -> np.ndarray:
    """(m, len(coords)) bits for the requested 1-based coordinates only.

    Columns are drawn in the order given, m uniforms per column.  The joint
    law of the returned columns matches the corresponding columns of
    sample_bit_matrix; the streams differ, so a given experiment must commit
    to one path.
    """
    if m < 0:
        raise InvalidParameterError("sample size must be non-negative")
    out = np.empty((m, len(coords)), dtype=np.uint8)
    for k, c in enumerate(coords):
        p = dist.marginal(c)
        out[:, k] = gen.random(m) < p
    return out


def sample_support_indices(
    dist: FiniteSupportDistribution, m: int, gen: np.random.Generator
) -> np.ndarray:
    """m support positions drawn by inversion of one uniform per point."""
    if m < 0:
        raise InvalidParameterError("sample size must be non-negative")
    u = gen.random(m)
    return np.searchsorted(dist._cum, u, side="right").astype(np.int64)


def sample_points(
    dist: Distribution, m: int, seed: "RngSeed | np.random.Generator"
) -> list[Point]:
    """m i.i.d. points; deterministic given the seed."""
    gen = _as_generator(seed)
    if isinstance(dist, ProductDistribution):
        words = sample_bit_matrix(dist, m, gen)
        return [Point(words[r].copy(), dist.n) for r in range(m)]
    idx = sample_support_indices(dist, m, gen)
    return [dist.support[int(t)] for t in idx]


def point_prob(dist: Distribution, x: Point) -> float:
    """Exact probability of a single point."""
    if x.n != dist.n:
        raise DimensionMismatchError(f"point has n={x.n}, distribution has n={dist.n}")
    if isinstance(dist, ProductDistribution):
        from .concepts import unpack_bit_rows

        bits = unpack_bit_rows(x.words, x.n)[0].astype(bool)
        return float(np.prod(np.where(bits, dist.marginals, 1.0 - dist.marginals)))
    pos = dist.support_position(x)
    return 0.0 if pos is None else float(dist.probs[pos])


def missing_mass_fraction(
    dist: FiniteSupportDistribution, observed: Iterable[Point]
) -> Fraction:
    """Probability mass of the support points not observed, as an exact rational.

    The exact numerators of the unseen points are summed over the common
    denominator, so missing + covered equals the total support mass as an
    identity.
    """
    seen = {dist.support_position(p) for p in observed}
    unseen = sum(a for t, a in enumerate(dist.numerators) if t not in seen)
    return Fraction(unseen, dist.denominator)


def missing_mass(dist: FiniteSupportDistribution, observed: Iterable[Point]) -> float:
    return float(missing_mass_fraction(dist, observed))


def uniform_finite(support: Sequence[Point]) -> FiniteSupportDistribution:
    d = len(support)
    return FiniteSupportDistribution(support, np.full(d, 1.0 / d))


def geometric_finite(support: Sequence[Point]) -> FiniteSupportDistribution:
    """Skewed preset: dyadic masses 1/2, 1/4, ..., with the tail point doubled.

    The masses sum to exactly 1 in floating point.
    """
    d = len(support)
    if d == 1:
        return FiniteSupportDistribution(support, np.array([1.0]))
    probs = np.array([2.0 ** -(t + 1) for t in range(d)])
    probs[-1] *= 2.0
    return FiniteSupportDistribution(support, probs)
