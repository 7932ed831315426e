"""Product and finite-support distributions over the hypercube, sampling, missing mass.

Randomness is counter-based: every trial derives its own 64-bit seed as a
pure function of (master seed, stream id, trial index) through a splitmix64
finalizer, so trials can run in any order or on any worker without changing
results.  The generator of trial t is exactly PCG64(s_t), where
s_t = mix64(mix64(master ^ mix64(stream)) ^ t * GOLDEN64 mod 2^64); its
PCG64 seed words are derived for 256 trials at a time by a vectorised copy
of numpy's SeedSequence, which is the same function at a fraction of the
per-trial cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .concepts import WORD_BITS, PointSet, pack_bit_rows, words_needed
from .errors import InvalidParameterError, config_value, spec_value

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
            object.__setattr__(self, name, spec_value(f"seed.{name}", getattr(self, name)))

    def substream(self, tag: int) -> "RngSeed":
        """A derived stream, used to give each sweep point independent randomness."""
        return RngSeed(self.master, mix64(self.stream ^ mix64(tag & _MASK64)))

    def generator(self, index: int = 0) -> np.random.Generator:
        """Generator(PCG64(s_index)), s_index as in the module docstring, built
        from seed words computed for index's whole block of trials."""
        index &= _MASK64
        words = _block_seed_words(self.master, self.stream, index >> _SEED_BLOCK_BITS)
        seed_seq = _state_words_class()(words[index & (_SEED_BLOCK - 1)])
        return np.random.Generator(np.random.PCG64(seed_seq))

    def to_json_dict(self) -> dict:
        return {"master": self.master, "stream": self.stream}


_SEED_BLOCK_BITS = 8
_SEED_BLOCK = 1 << _SEED_BLOCK_BITS


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array, wrapping as the scalar version masks."""
    x = x + np.uint64(GOLDEN64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of SeedSequence's first `count` hash steps.

    Each step xors in the running constant, advances it by `mult`, then
    multiplies by the advanced value; the sequence never depends on data.
    """
    xors, mults = [], []
    for _ in range(count):
        xors.append(init)
        init = (init * mult) & 0xFFFFFFFF
        mults.append(init)
    return np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None]


# numpy.random.SeedSequence's constants (pool size 4): mix_entropy hashes 4
# entropy words and then 4 x 3 pool words; generate_state hashes 8 output words.
_MIX_XOR, _MIX_MUL = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_OUT_XOR, _OUT_MUL = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _xorshift(v: np.ndarray) -> np.ndarray:
    v ^= v >> _XSHIFT
    return v


def seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for each uint64 seed s.

    A vectorised port in uint32 arithmetic: an integer seed is the entropy
    words [lo32, hi32], padded with zeros to the pool size of 4.  Returns a
    (len(seeds), 4) uint64 array.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    pool ^= _MIX_XOR[:4]
    pool *= _MIX_MUL[:4]
    _xorshift(pool)
    for src in range(4):
        steps = slice(4 + 3 * src, 7 + 3 * src)
        hashed = pool[src] ^ _MIX_XOR[steps]
        hashed *= _MIX_MUL[steps]
        _xorshift(hashed)
        dst = [d for d in range(4) if d != src]
        pool[dst] = _xorshift(_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed)
    out = pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _OUT_XOR
    out *= _OUT_MUL
    _xorshift(out)
    # Word pairs are joined little-endian, as generate_state does.
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=16)
def _block_seed_words(master: int, stream: int, block: int) -> np.ndarray:
    """PCG64 seed words of trials block*256 .. block*256+255 of one stream."""
    base = mix64(master ^ mix64(stream))
    index = np.arange(_SEED_BLOCK, dtype=np.uint64) + np.uint64(block << _SEED_BLOCK_BITS)
    seeds = _mix64_array(np.uint64(base) ^ (index * np.uint64(GOLDEN64)))
    words = seed_sequence_words(seeds)
    words.setflags(write=False)
    return words


@cache
def _state_words_class() -> type:
    """An ISeedSequence that hands PCG64 precomputed seed words.

    Made on first use, because subclassing ISeedSequence imports
    numpy.random, which a gaplab process that draws nothing never needs.
    """
    from numpy.random.bit_generator import ISeedSequence

    class _StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for exactly these: 4 words of dtype uint64.
            return self.words

    return _StateWords


@dataclass(frozen=True)
class ProductDistribution:
    """Independent per-coordinate Bernoulli marginals over {0,1}^n."""

    marginals: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.marginals, dtype=np.float64)
        if m.ndim != 1 or m.size == 0:
            raise InvalidParameterError("marginals must be a non-empty vector")
        if not np.all((m >= 0.0) & (m <= 1.0)):
            raise InvalidParameterError("marginals must lie in [0, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "marginals", m)

    @property
    def n(self) -> int:
        return int(self.marginals.size)

    def marginal(self, j: int) -> float:
        if not 1 <= j <= self.n:
            raise InvalidParameterError(f"coordinate {j} out of range 1..{self.n}")
        return float(self.marginals[j - 1])

    def to_json_dict(self) -> dict:
        return {"kind": "product", "marginals": [float(p) for p in self.marginals]}


@dataclass(frozen=True)
class PneMember:
    """P_i of the family P_{n,eps}: a fair coin at coordinate i, Bernoulli(eps)
    elsewhere.  The three fields describe it; PneFamily.member checks them."""

    n: int
    eps: float
    i: int

    def marginal(self, j: int) -> float:
        if not 1 <= j <= self.n:
            raise InvalidParameterError(f"coordinate {j} out of range 1..{self.n}")
        return 0.5 if j == self.i else self.eps

    @property
    def marginals(self) -> np.ndarray:
        """The read-only vector of all n marginals, built on each access."""
        m = np.full(self.n, self.eps, dtype=np.float64)
        m[self.i - 1] = 0.5
        m.setflags(write=False)
        return m

    def to_json_dict(self) -> dict:
        return {"kind": "pne", "n": self.n, "eps": self.eps, "i": self.i}


def make_pne(n: int, eps: float, i: int) -> PneMember:
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

    def member(self, i: int) -> PneMember:
        """P_i, for i in 1..n."""
        if not 1 <= i <= self.n:
            raise InvalidParameterError(f"special index {i} out of range 1..{self.n}")
        return PneMember(self.n, float(self.eps), i)

    def to_json_dict(self) -> dict:
        return {"kind": "pne", "n": self.n, "eps": self.eps}


class FiniteSupportDistribution:
    """A distribution with finite support on an ordered set of points.

    Every float probability is a dyadic rational, so the probabilities are
    also held exactly as integer numerators over one common denominator:
    probs[t] == Fraction(numerators[t], denominator).
    """

    __slots__ = ("support", "probs", "numerators", "denominator", "_cum")

    def __init__(self, support: PointSet, probs: Sequence[float]):
        p = np.ascontiguousarray(probs, dtype=np.float64)
        if len(support) == 0 or p.shape != (len(support),):
            raise InvalidParameterError("support and probs must be non-empty and aligned")
        if not np.all(p >= 0.0):
            raise InvalidParameterError("probabilities must be non-negative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise InvalidParameterError(f"probabilities sum to {p.sum()}, not 1")
        p.setflags(write=False)
        exact = [Fraction(float(q)) for q in p]
        denominator = math.lcm(*(f.denominator for f in exact))
        self.support = support
        self.probs = p
        self.numerators = tuple(f.numerator * (denominator // f.denominator) for f in exact)
        self.denominator = denominator
        # The float sums can fall short of 1, so the sum at the last point of
        # positive mass is +inf: every uniform draw lands on or before it.
        cum = np.cumsum(p)
        cum[np.flatnonzero(p)[-1]:] = np.inf
        self._cum = cum

    def __reduce__(self):
        return FiniteSupportDistribution, (self.support, self.probs)

    @property
    def n(self) -> int:
        return self.support.n

    def mass(self, indices: Iterable[int]) -> float:
        """Probability of the support points at `indices`, added left to right
        in the order given.

        An explicit loop, because builtin sum compensates float rounding from
        Python 3.12 on, and np.sum adds pairwise: the last bits would depend on
        the interpreter.
        """
        probs = self.probs
        total = 0.0
        for t in indices:
            total += float(probs[t])
        return total

    def exact_mass(self, indices: Iterable[int]) -> Fraction:
        """Probability of the support points at `indices`, as an exact rational."""
        numerators = self.numerators
        return Fraction(sum(numerators[t] for t in indices), self.denominator)

    def to_json_dict(self) -> dict:
        return {
            "kind": "finite",
            "support": self.support.to_strings(),
            "probs": [float(p) for p in self.probs],
        }


# A law over {0,1}^n with independent coordinates.
ProductLaw = ProductDistribution | PneMember
Distribution = ProductLaw | FiniteSupportDistribution


def float_vector(value) -> np.ndarray:
    """A float64 vector of finite values from a JSON list, where null reads as NaN."""
    vector = np.asarray(value, dtype=np.float64)
    if not np.isfinite(vector).all():
        raise ValueError
    return vector


def distribution_from_json_dict(
    obj: dict, key: str = "dist", where: str = "trial config"
) -> Distribution | PneFamily:
    """The distribution a JSON object describes; `obj` sits at `key` of
    `where`, which a bad value's spec error names."""
    def value(kind, name):
        return config_value(kind, obj.get(name), f"{key}.{name}", where)

    def number(name):
        return spec_value(f"{key}.{name}", obj.get(name), where)

    kind = obj.get("kind")
    if kind == "product":
        return ProductDistribution(value(float_vector, "marginals"))
    if kind == "pne":
        n, eps = number("n"), number("eps")
        if obj.get("i") is not None:
            return make_pne(n, eps, number("i"))
        return PneFamily(n, eps)
    if kind == "finite":
        return FiniteSupportDistribution(value(PointSet, "support"), value(float_vector, "probs"))
    raise InvalidParameterError(f"unknown distribution kind {kind!r}")


# sample_bit_matrix draws tiles of at most this many cells: row blocks, or a
# row longer than that in column chunks.  Every dense read goes through
# _uniforms, whose float64 and bool scratch buffers grow on demand and are
# reused by every call in the process.  That is safe because the packed rows
# a draw returns are fresh arrays that never alias the buffers, and no read
# runs inside another.
_BLOCK_CELLS = 1 << 17
_block_scratch = (np.empty(0), np.empty(0, dtype=bool))


def _uniforms(gen: np.random.Generator, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """gen's next `cells` doubles and a bool vector as long, both in the
    scratch buffers."""
    global _block_scratch
    if _block_scratch[0].size < cells:
        size = max(_BLOCK_CELLS, cells)
        _block_scratch = (np.empty(size), np.empty(size, dtype=bool))
    u, bits = _block_scratch[0][:cells], _block_scratch[1][:cells]
    gen.random(out=u)
    return u, bits


def _draw_block(
    dist: ProductLaw, rows: int, c0: int, c1: int, gen: np.random.Generator
) -> np.ndarray:
    """Packed bits of columns c0..c1-1 (0-based) of dist's next `rows` draws."""
    width = c1 - c0
    u, bits = _uniforms(gen, rows * width)
    if isinstance(dist, PneMember):
        np.less(u, dist.eps, bits)
        if c0 < dist.i <= c1:  # column i of each row, every width-th cell
            np.less(u[dist.i - 1 - c0 :: width], 0.5, bits[dist.i - 1 - c0 :: width])
    else:
        np.less(u.reshape(rows, width), dist.marginals[c0:c1], bits.reshape(rows, width))
    return pack_bit_rows(bits.reshape(rows, width).view(np.uint8))


def sample_bit_matrix(dist: ProductLaw, m: int, gen: np.random.Generator) -> np.ndarray:
    """(m, words) packed rows of m i.i.d. draws.

    Reference sampling path: one uniform double per coordinate, row-major,
    compared against the coordinate's marginal.  All faster paths must stay
    bit-identical to this consumption order.  The draw is cut into tiles of
    at most 2^17 cells, read through reused buffers: blocks of whole rows,
    or for a longer row, chunks of whole words of that one row.  Tiles are
    read in the order of one whole draw, so the stream is consumed exactly
    as that draw would consume it, and a call holds about 1.1 MiB besides
    its m * n / 8 byte output.  A pne member's marginals are eps except 1/2
    at coordinate i, so its draws are compared against the scalar eps and
    column i is redone against 1/2.
    """
    if m < 0:
        raise InvalidParameterError("sample size must be non-negative")
    n = dist.n
    if m * n <= _BLOCK_CELLS:
        return _draw_block(dist, m, 0, n, gen)
    # Whole rows while one fits in a block, else one row in chunks of whole words.
    rows, width = max(1, _BLOCK_CELLS // n), min(n, _BLOCK_CELLS // WORD_BITS * WORD_BITS)
    out = np.empty((m, words_needed(n)), dtype=np.uint64)
    for r0 in range(0, m, rows):
        r1 = min(m, r0 + rows)
        for c0 in range(0, n, width):
            c1 = min(n, c0 + width)
            out[r0:r1, c0 // WORD_BITS : words_needed(c1)] = _draw_block(dist, r1 - r0, c0, c1, gen)
    return out


# A replayed row's whole range is read densely while it holds at most this
# many cells per surviving column; past that each survivor's cell is read on
# its own.  A dense cell costs about 5 ns, an advance plus a scalar draw
# about 1.7 us.
_SPAN_CELLS_PER_SURVIVOR = 300

# PneReplay.first_consistent's first block is at least this many columns wide.
_FIRST_SCAN_BLOCK = 256


class PneReplay:
    """Random access to the cells of sample_bit_matrix(dist, m, gen) for a pne member.

    The reference draw takes one 64-bit output per double, row-major, so
    cell (r, c) (0-based) is output r * n + c counted from where the draw
    starts, and the reader jumps there with bit_generator.advance.  A cell
    is compared exactly as the draw compares it, so every bit read is the
    dense draw's bit; the cells never read are never drawn.  Build it where
    sample_bit_matrix would be called.  It leaves gen at no defined
    position, so nothing may draw from gen after it.

    `labels` holds the fair column i.  `consistent` finds the other columns
    that equal it on every row.  It visits the rows labelled 1 first, where
    a Bernoulli(eps) column survives with probability eps, and reads a row
    as one dense span while the survivors are many and cell by cell after.
    """

    def __init__(self, dist: PneMember, m: int, gen: np.random.Generator):
        self.dist, self.m = dist, m
        self._gen = gen
        self._pos = 0  # outputs consumed since the draw's start
        fair = dist.i - 1
        self.labels = np.array([self._cell(r, fair) < 0.5 for r in range(m)], dtype=np.uint8)
        self._rows = sorted(range(m), key=lambda r: not self.labels[r])

    def _seek(self, r: int, c: int, cells: int) -> None:
        """Jump to cell (r, c), from which the caller reads `cells` doubles."""
        k = r * self.dist.n + c
        if k != self._pos:
            self._gen.bit_generator.advance((k - self._pos) % (1 << 128))
        self._pos = k + cells

    def _cell(self, r: int, c: int) -> float:
        self._seek(r, c, 1)
        return self._gen.random()

    def _span(self, r: int, c0: int, c1: int) -> tuple[np.ndarray, np.ndarray]:
        """Row r's doubles at columns c0..c1-1 and a bool row as long, in the
        scratch buffers."""
        self._seek(r, c0, c1 - c0)
        return _uniforms(self._gen, c1 - c0)

    def bits(self, c0: int, c1: int) -> np.ndarray:
        """(m, c1 - c0) uint8 bits of columns c0..c1-1, which must lie below
        the fair column."""
        if not 0 <= c0 <= c1 < self.dist.i:
            raise InvalidParameterError(f"columns {c0}..{c1 - 1} do not lie below the fair one")
        out = np.empty((self.m, c1 - c0), dtype=np.uint8)
        for r in range(self.m):
            u, _ = self._span(r, c0, c1)
            np.less(u, self.dist.eps, out[r])
        return out

    def consistent(self, lo: int, hi: int) -> np.ndarray:
        """The columns of lo..hi-1 (0-based), the fair one excepted, whose m
        bits all equal the labels, ascending."""
        eps = self.dist.eps
        alive = np.ones(hi - lo, dtype=bool)
        if lo < self.dist.i <= hi:
            alive[self.dist.i - 1 - lo] = False
        cols = None  # the survivors, once rows are read cell by cell
        for r in self._rows:
            label = bool(self.labels[r])
            if cols is None:
                if alive.size <= _SPAN_CELLS_PER_SURVIVOR * np.count_nonzero(alive):
                    # alive &= (bit == label): np.greater(a, b) is a & ~b.
                    keep = np.logical_and if label else np.greater
                    for c0 in range(0, alive.size, _BLOCK_CELLS):
                        c1 = min(alive.size, c0 + _BLOCK_CELLS)
                        u, bits = self._span(r, lo + c0, lo + c1)
                        np.less(u, eps, bits)
                        keep(alive[c0:c1], bits, out=alive[c0:c1])
                    continue
                cols = (np.flatnonzero(alive) + lo).tolist()
            cols = [c for c in cols if (self._cell(r, c) < eps) == label]
        if cols is None:
            return np.flatnonzero(alive) + lo
        return np.array(cols, dtype=np.int64)

    def first_consistent(self, lo: int, hi: int) -> int | None:
        """The lowest column consistent(lo, hi) would return, or None.

        Scans blocks that grow fourfold and stops at the first that holds a
        consistent column.  A column is consistent with probability
        q = eps^k (1 - eps)^(m - k), k the number of labels that are 1, so
        the first block spans the expected gap 1/q between them, and at
        least _FIRST_SCAN_BLOCK columns.
        """
        eps, ones = self.dist.eps, int(self.labels.sum())
        q = eps**ones * (1.0 - eps) ** (self.m - ones)
        width = hi - lo if q * (hi - lo) < 1.0 else max(_FIRST_SCAN_BLOCK, int(1.0 / q))
        while lo < hi:
            found = self.consistent(lo, min(hi, lo + width))
            if found.size:
                return int(found[0])
            lo += width
            width *= 4
        return None


def sample_coordinate_columns(
    dist: ProductLaw,
    coords: Sequence[int],
    m: int,
    gen: np.random.Generator,
) -> np.ndarray:
    """(m, len(coords)) bits for the requested 1-based coordinates only.

    Columns are drawn in the order given, m uniforms per column, in one
    generator call.  The joint law of the returned columns matches the
    corresponding columns of sample_bit_matrix; the streams differ, so a
    given experiment must commit to one path.
    """
    p = np.array([dist.marginal(c) for c in coords], dtype=np.float64)
    return (gen.random((p.size, m)) < p[:, None]).T.view(np.uint8)


def sample_support_indices(
    dist: FiniteSupportDistribution, m: int, gen: np.random.Generator
) -> np.ndarray:
    """m support positions drawn by inversion of one uniform per point."""
    u = gen.random(m)
    return np.searchsorted(dist._cum, u, side="right").astype(np.int64)


def missing_mass_fraction(dist: FiniteSupportDistribution, seen: Iterable[int]) -> Fraction:
    """Probability mass of the support points whose indices are not in `seen`,
    as an exact rational.

    `seen` holds support indices, in any order and with repeats.  The exact
    numerators of the unseen points are summed over the common denominator,
    so missing + covered equals the total support mass as an identity.
    """
    d = len(dist.support)
    seen = set(seen)
    if not seen.issubset(range(d)):
        raise InvalidParameterError(f"seen points must be support indices in 0..{d - 1}")
    return dist.exact_mass(t for t in range(d) if t not in seen)


def uniform_finite(support: PointSet) -> FiniteSupportDistribution:
    d = len(support)
    return FiniteSupportDistribution(support, np.full(d, 1.0 / d))


def geometric_finite(support: PointSet) -> FiniteSupportDistribution:
    """Skewed preset: dyadic masses 1/2, 1/4, ..., with the tail point doubled.

    The masses sum to exactly 1 in floating point.
    """
    d = len(support)
    probs = np.array([2.0 ** -(t + 1) for t in range(d)])
    probs[-1] *= 2.0
    return FiniteSupportDistribution(support, probs)
