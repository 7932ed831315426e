"""Hypercube points, projection and truth-table concept classes, brute-force VC dimension.

A concept is its 1-based index in its class (c_1 .. c_n), and coordinates are
1-based too (x[1] .. x[n]); everything is 0-based internally.  Points are bit-packed into
64-bit words, little-endian within each word, so that coordinate j (1-based)
lives at bit (j-1) % 64 of word (j-1) // 64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    PointNotInDomainError,
    config_value,
    spec_value,
)

WORD_BITS = 64

# Fixed seed for the default random padding of the VC search universe.  The
# op takes no RNG argument, so the default universe must be a pure function
# of the class.
_VC_UNIVERSE_SEED = 0x5EED_C0DE
_VC_UNIVERSE_RANDOM_POINTS = 64

# Guard for the label matrix materialized by the VC search.
_VC_LABEL_CELL_LIMIT = 1 << 28


def words_needed(n: int) -> int:
    return (n + WORD_BITS - 1) // WORD_BITS


@cache
def full_mask_words(n: int) -> np.ndarray:
    """All-ones mask for n bits: trailing bits of the last word are zero.

    Cached per n and read-only.
    """
    w = words_needed(n)
    mask = np.full(w, ~np.uint64(0), dtype=np.uint64)
    rem = n % WORD_BITS
    if w and rem:
        mask[-1] = np.uint64((1 << rem) - 1)
    mask.setflags(write=False)
    return mask


def pack_bit_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a (rows, n) array of 0/1 values into (rows, words) uint64.

    Bit (j % 64) of word (j // 64) holds column j; padding bits are zero.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise InvalidParameterError("expected a 2-d bit array")
    rows, n = bits.shape
    w = words_needed(n)
    packed = np.packbits(bits, axis=1, bitorder="little")
    if packed.shape[1] < w * 8:
        pad = np.zeros((rows, w * 8 - packed.shape[1]), dtype=np.uint8)
        packed = np.concatenate([packed, pad], axis=1)
    return packed.view("<u8")


def unpack_bit_rows(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_bit_rows: (rows, words) uint64 -> (rows, n) uint8."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim == 1:
        words = words[None, :]
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little")


def packed_column(words: np.ndarray, j: int) -> np.ndarray:
    """Bits of 1-based coordinate j across packed rows, as uint8; j is not checked."""
    j -= 1
    return ((words[:, j // 64] >> np.uint64(j % 64)) & np.uint64(1)).astype(np.uint8)


def bit_string(row: np.ndarray, n: int) -> str:
    """The 0/1 string of one packed n-bit row, coordinate 1 first."""
    return "".join(map(str, unpack_bit_rows(row, n)[0].tolist()))


def row_keys(rows: np.ndarray, n: int) -> list[tuple[int, bytes]]:
    """The key a PointSet finds each packed n-bit row by; a row of another n
    never matches.  Slices of one bytes object: twice as fast as a tobytes per row."""
    flat, width = rows.tobytes(), 8 * rows.shape[1]
    return [(n, flat[r * width:(r + 1) * width]) for r in range(len(rows))]


class PointSet:
    """An ordered set of distinct points of {0,1}^n: the rows of a read-only
    (points, words) uint64 matrix, each keyed by (n, row bytes) to its
    position.  A table class's domain and a finite law's support are point
    sets; a spec writes one as a list of 0/1 strings."""

    __slots__ = ("n", "rows", "_index")

    def __init__(self, strings: Iterable[str]):
        strings = list(strings)
        for s in strings:
            if not isinstance(s, str) or set(s) - {"0", "1"}:
                raise InvalidParameterError(f"not a 0/1 string: {s!r}")
        n = len(strings[0]) if strings else 0
        if any(len(s) != n for s in strings):
            raise DimensionMismatchError("points must share a dimension")
        bits = np.array([[ch == "1" for ch in s] for s in strings], dtype=np.uint8)
        self._hold(pack_bit_rows(bits.reshape(len(strings), n)), n)

    @classmethod
    def from_rows(cls, rows: np.ndarray, n: int) -> "PointSet":
        """The points of a (points, words) matrix of packed n-bit rows, copied."""
        rows = np.array(rows, dtype=np.uint64)
        if rows.ndim != 2 or rows.shape[1] != words_needed(n):
            raise DimensionMismatchError(f"rows of shape {rows.shape} do not pack {n} bits")
        if (rows & ~full_mask_words(n)).any():
            raise InvalidParameterError("bits beyond n must be zero")
        points = cls.__new__(cls)
        points._hold(rows, n)
        return points

    def _hold(self, rows: np.ndarray, n: int) -> None:
        index = {key: t for t, key in enumerate(row_keys(rows, n))}
        if len(index) != len(rows):
            raise InvalidParameterError("points must be pairwise distinct")
        rows.setflags(write=False)
        self.n = n
        self.rows = rows
        self._index = index

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and list(self._index) == list(other._index)

    def __reduce__(self):
        # Rebuilt on unpickling, so a worker's copy keeps its rows read-only.
        return PointSet.from_rows, (self.rows, self.n)

    def keys(self):
        """Each point's key, in order: what a PointSet or a memorizer finds it by."""
        return self._index.keys()

    def find(self, keys: Iterable[tuple[int, bytes]]) -> list[int]:
        """The position of each point key (from row_keys or keys()); a point
        outside the set raises PointNotInDomainError, which names it."""
        try:
            return [self._index[key] for key in keys]
        except KeyError as missing:
            n, raw = missing.args[0]
            row = np.frombuffer(raw, dtype=np.uint64)
            raise PointNotInDomainError(
                f"point {bit_string(row, n)!r} is not in the table domain") from None

    def to_strings(self) -> list[str]:
        return [bit_string(row, self.n) for row in self.rows]


@dataclass(frozen=True)
class ProjectionClass:
    """The class C_n of the n coordinate projections over {0,1}^n."""

    n: int

    @property
    def num_concepts(self) -> int:
        return self.n

    def concept(self, i: int) -> int:
        """Concept c_i, which is its 1-based index i, after a range check."""
        if not 1 <= i <= self.n:
            raise InvalidParameterError(f"projection index {i} out of range 1..{self.n}")
        return i

    def to_json_dict(self) -> dict:
        return {"kind": "projections", "n": self.n}


class TableClass:
    """A finite concept class given by explicit truth tables over a fixed domain.

    Each table is an integer mask: bit t (LSB = 0) is the concept's value on
    domain[t].  `tables` may be a lazy range (used for the all-functions
    class) or an explicit list.
    """

    __slots__ = ("domain", "tables", "_table_array")

    def __init__(self, domain: PointSet, tables: Sequence[int]):
        d = len(domain)
        limit = 1 << d
        if isinstance(tables, range):
            if len(tables) and not (
                tables.step > 0 and 0 <= tables[0] and tables[-1] < limit
            ):
                raise InvalidParameterError(f"table range does not fit {d} domain bits")
        else:
            tables = tuple(int(t) for t in tables)
            for tbl in tables:
                if not 0 <= tbl < limit:
                    raise InvalidParameterError(f"table {tbl} does not fit {d} domain bits")
        self.domain = domain
        self.tables = tables
        self._table_array = None

    def __reduce__(self):
        return TableClass, (self.domain, self.tables)

    @property
    def domain_size(self) -> int:
        return len(self.domain)

    @property
    def num_concepts(self) -> int:
        return len(self.tables)

    def concept(self, i: int) -> int:
        """Concept i, which is its 1-based index, after a range check."""
        self.table_mask(i)
        return i

    def table_mask(self, i: int) -> int:
        """The truth table of concept i (1-based)."""
        if not 1 <= i <= self.num_concepts:
            raise InvalidParameterError(
                f"table index {i} out of range 1..{self.num_concepts}"
            )
        return int(self.tables[i - 1])

    def table_array(self) -> np.ndarray:
        """The truth tables as a read-only uint64 vector, by 0-based concept
        index; built on first use."""
        if self.domain_size > WORD_BITS:
            raise InvalidParameterError(f"a table class of {self.domain_size} domain points has "
                                        "tables wider than 64 bits; the limit is 64 points")
        if self._table_array is None:
            t = self.tables
            self._table_array = (np.arange(t.start, t.stop, t.step, dtype=np.uint64)
                                 if isinstance(t, range) else np.array(t, dtype=np.uint64))
            self._table_array.setflags(write=False)
        return self._table_array

    def table_from_string(self, s: str) -> int:
        """Mask for a table written as a 0/1 string over the domain in order."""
        if len(s) != self.domain_size or set(s) - {"0", "1"}:
            raise InvalidParameterError(f"table string must be 0/1 of length {self.domain_size}")
        return sum(1 << t for t, ch in enumerate(s) if ch == "1")

    def table_to_string(self, mask: int) -> str:
        return "".join(str((mask >> t) & 1) for t in range(self.domain_size))

    def to_json_dict(self) -> dict:
        return {
            "kind": "table",
            "domain": self.domain.to_strings(),
            "tables": [self.table_to_string(int(t)) for t in self.tables],
        }


ConceptClass = ProjectionClass | TableClass


def class_from_json_dict(
    obj: dict, key: str = "class", where: str = "trial config"
) -> ConceptClass:
    """The class a JSON object describes; `obj` sits at `key` of `where`,
    which a bad value's spec error names."""
    kind = obj.get("kind")
    if kind == "projections":
        return ProjectionClass(spec_value(f"{key}.n", obj.get("n"), where))
    if kind == "table":
        domain = config_value(PointSet, obj.get("domain"), f"{key}.domain", where)
        cls = TableClass(domain, [])

        def table_list(value) -> list[int]:
            return [cls.table_from_string(s) for s in value]

        tables = config_value(table_list, obj.get("tables"), f"{key}.tables", where)
        return TableClass(domain, tables)
    raise InvalidParameterError(f"unknown class kind {kind!r}")


def all_functions_class(domain: PointSet) -> TableClass:
    """The class of all 2^D functions on a finite domain (tables held lazily)."""
    d = len(domain)
    if d > 20:
        raise InvalidParameterError(f"all-functions domain capped at 20 points, got {d}")
    return TableClass(domain, range(1 << d))


def build_shattered_set(n: int) -> np.ndarray:
    """Points x_1 .. x_d, d = floor(log2 n), shattered by the projection class,
    as the rows of a (d, words) packed matrix.

    Coordinate j of x_i is bit i of the binary expansion of j-1 (bit 1 being
    the least significant), so the n coordinate-columns run through all
    length-d patterns.
    """
    if n < 2:
        raise InvalidParameterError("shattered-set construction needs n >= 2")
    j = np.arange(n, dtype=np.uint64)
    return pack_bit_rows(np.array([((j >> np.uint64(i)) & np.uint64(1)).astype(np.uint8)
                                   for i in range(n.bit_length() - 1)]))


def label_rows(cls: ConceptClass, words: np.ndarray, n: int) -> np.ndarray:
    """(rows, concepts) uint8 matrix of every concept's value on packed n-bit rows.

    A table class finds each row in its domain; a row outside it raises
    PointNotInDomainError.
    """
    if isinstance(cls, ProjectionClass):
        if n != cls.n:
            raise DimensionMismatchError(f"rows have n={n}, the class has n={cls.n}")
        return unpack_bit_rows(words, n)
    pos = np.array(cls.domain.find(row_keys(words, n)), dtype=np.uint64)
    return ((cls.table_array()[None, :] >> pos[:, None]) & np.uint64(1)).astype(np.uint8)


def _find_shattered(labels: np.ndarray, k: int) -> bool:
    """DFS for k universe rows whose label columns realize all 2^k patterns.

    A partial choice of depth d splits the concepts into 2^d cells; every
    cell must keep at least 2^(k-d) concepts for an extension to exist,
    which prunes hard.
    """
    def recurse(cells: list[np.ndarray], start: int, depth: int) -> bool:
        if depth == k:
            return True
        need = 1 << (k - depth - 1)
        viable = np.arange(len(labels)) >= start
        for cell in cells:
            ones = labels[:, cell].sum(axis=1)
            viable &= (ones >= need) & (cell.size - ones >= need)
            if not viable.any():
                return False
        for u in np.flatnonzero(viable):
            hits = [labels[u, cell] == 1 for cell in cells]
            children = [part for cell, h in zip(cells, hits) for part in (cell[h], cell[~h])]
            if recurse(children, int(u) + 1, depth + 1):
                return True
        return False

    all_concepts = np.arange(labels.shape[1])
    return recurse([all_concepts], 0, 0)


def check_vc_search(cls: ConceptClass, rows: int | None = None) -> None:
    """Refuse a VC search of a universe of `rows` points before it exists: a
    table class wider than 64 points, or more than 2^28 label cells.  None
    counts the default universe before repeats are dropped."""
    nc = cls.num_concepts
    if isinstance(cls, TableClass) and nc:
        cls.table_array()  # refuses a domain wider than its uint64 tables
    if rows is None:
        rows = (cls.domain_size if isinstance(cls, TableClass)
                else cls.n.bit_length() - 1 + _VC_UNIVERSE_RANDOM_POINTS)
    if not rows:
        raise InvalidParameterError("universe must be non-empty")
    if rows * nc > _VC_LABEL_CELL_LIMIT:
        raise InvalidParameterError(
            f"universe x class too large for the exhaustive search ({rows} x {nc})"
        )


def _default_universe(cls: ConceptClass) -> np.ndarray:
    """A table class's domain, or for the projections the shattered set and
    then the fixed-seed random points, repeats dropped, first occurrences kept."""
    if isinstance(cls, TableClass):
        return cls.domain.rows
    gen = np.random.Generator(np.random.PCG64(_VC_UNIVERSE_SEED))
    # One row at a time: the same stream as a single (points, n) draw.
    rows = [pack_bit_rows(gen.random((1, cls.n)) < 0.5)
            for _ in range(_VC_UNIVERSE_RANDOM_POINTS)]
    if cls.n >= 2:
        rows.insert(0, build_shattered_set(cls.n))
    rows = np.concatenate(rows)
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)]


def vc_dimension_bruteforce(
    cls: ConceptClass,
    universe: np.ndarray | None = None,
    d_max: int | None = None,
) -> int:
    """Size of the largest shattered subset of `universe`, a (rows, words)
    uint64 matrix of packed points, found by exhaustive search.

    The search is capped a priori at floor(log2 |C|): a shattered set of size
    d needs 2^d distinct concept restrictions.  With the full 2^n universe
    this makes the result exact for the projection class.
    """
    check_vc_search(cls, None if universe is None else len(universe))
    if universe is None:
        universe = _default_universe(cls)
    nc = cls.num_concepts
    if nc == 0:
        return 0
    cap = min(len(universe), nc.bit_length() - 1)
    if d_max is not None:
        cap = min(cap, d_max)
    n = cls.n if isinstance(cls, ProjectionClass) else cls.domain.n
    if universe.shape[1:] != (words_needed(n),):
        raise DimensionMismatchError(f"universe rows must pack {n}-bit points")
    labels = label_rows(cls, universe, n)
    for k in range(cap, 0, -1):
        if _find_shattered(labels, k):
            return k
    return 0


def full_hypercube(n: int) -> np.ndarray:
    """All 2^n points, n <= 20, as one-word rows: coordinate j of row v is bit j-1 of v."""
    if n > 20:
        raise InvalidParameterError("full hypercube enumeration capped at n = 20")
    return np.arange(1 << n, dtype=np.uint64)[:, None]


def enumerated_domain(size: int) -> PointSet:
    """`size` distinct points: the binary encodings of 0 .. size-1 in the
    fewest bits, at least one, as full_hypercube encodes them."""
    n = max(1, (size - 1).bit_length())
    return PointSet.from_rows(np.arange(size, dtype=np.uint64)[:, None], n)
