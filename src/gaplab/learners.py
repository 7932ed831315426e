"""Learners: ERM, the cover learner, the posterior rule for projections, the memorizer.

A labeled sample is held as a bit-packed m x n matrix plus an m-vector of
labels, matching the matrix view of the hypercube experiments: row r is the
r-th unlabeled example, column j collects coordinate j across the sample.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .concepts import (
    ConceptClass,
    PointSet,
    ProjectionClass,
    bit_string,
    full_mask_words,
    label_rows,
    row_keys,
    words_needed,
)
from .errors import (
    DimensionMismatchError,
    InconsistentSampleError,
    InvalidParameterError,
)
from .metric_cover import CoverResult

# Row-block budget for the dense label matrix of the mistake counts.
_DENSE_CELL_BUDGET = 1 << 26

# XOR mask per label bit: a row labelled 0 is complemented, one labelled 1 kept.
_LABEL_FLIP = np.array([~np.uint64(0), np.uint64(0)], dtype=np.uint64)


class LabeledSample:
    """m labeled points: packed point matrix X (m rows) and label vector Y."""

    __slots__ = ("n", "words", "labels")

    def __init__(self, words: np.ndarray, labels: np.ndarray, n: int):
        words = np.ascontiguousarray(words, dtype=np.uint64)
        labels = np.ascontiguousarray(labels, dtype=np.uint8)
        if words.ndim != 2 or words.shape[1] != words_needed(n):
            raise InvalidParameterError("packed matrix shape does not match n")
        if labels.shape != (words.shape[0],):
            raise InvalidParameterError("labels must align with the points")
        if labels.size and labels.max() > 1:
            raise InvalidParameterError("labels must be bits")
        words.setflags(write=False)
        labels.setflags(write=False)
        self.n = n
        self.words = words
        self.labels = labels

    @classmethod
    def from_points(cls, points: PointSet, indices: Sequence[int], labels: Sequence[int]):
        """The points at `indices` of a point set, in that order, labelled by `labels`."""
        return cls(points.rows[np.asarray(indices, dtype=np.intp)], labels, points.n)

    @property
    def m(self) -> int:
        return int(self.words.shape[0])

    def column_match_mask(self) -> np.ndarray:
        """Packed mask over coordinates whose column equals the label vector.

        This is the candidate-index set of the posterior analysis: coordinate
        j survives iff bit j of every row r equals label r.  O(m * n / 64).
        Rows labelled 0 are flipped (XOR with all ones) before the AND.
        """
        flip = _LABEL_FLIP.take(self.labels)[:, None]
        return np.bitwise_and.reduce(self.words ^ flip, axis=0) & full_mask_words(self.n)


def _first_set_index(mask: np.ndarray) -> int | None:
    """1-based position of the lowest set bit of a packed mask, or None."""
    nz = np.flatnonzero(mask)
    if nz.size == 0:
        return None
    w = int(nz[0])
    word = int(mask[w])
    return w * 64 + (word & -word).bit_length()


def mistake_counts(cls: ConceptClass, sample: LabeledSample) -> np.ndarray:
    """Number of sample rows each concept labels differently from Y, by
    0-based concept index.

    Counted on the class's label matrix of the sample, in row blocks that
    bound the dense buffer.
    """
    counts = np.zeros(cls.num_concepts, dtype=np.int64)
    block = max(1, _DENSE_CELL_BUDGET // max(cls.num_concepts, 1))
    for lo in range(0, sample.m, block):
        hi = min(sample.m, lo + block)
        values = label_rows(cls, sample.words[lo:hi], sample.n)
        counts += (values != sample.labels[lo:hi, None]).sum(axis=0)
    return counts


def erm(cls: ConceptClass, sample: LabeledSample) -> int:
    """1-based index of the concept of minimal empirical error, ties broken by
    lowest index.

    For projections the realizable case is resolved in O(m n / 64) by the
    column-match mask; the mistake counts are only needed when no column
    matches the labels exactly.
    """
    if cls.num_concepts == 0:
        raise InvalidParameterError("cannot run ERM over an empty class")
    if isinstance(cls, ProjectionClass):
        if sample.n != cls.n:
            raise DimensionMismatchError("sample dimension does not match the class")
        first = _first_set_index(sample.column_match_mask())
        if first is not None:
            return first
    return int(np.argmin(mistake_counts(cls, sample))) + 1


def cover_learner(cls: ConceptClass, cover: CoverResult, sample: LabeledSample) -> int:
    """argmin of empirical error over the cover members, ties to the lowest index."""
    if not cover.members:
        raise InvalidParameterError("cover must be non-empty")
    counts = mistake_counts(cls, sample)
    return min(cover.members, key=lambda i: (counts[i - 1], i))


def posterior_mean_label(k_size: int, s: int, eps: float) -> float:
    """E[target label | sample, test point] as a function of K = |k_set| and S.

    S counts the candidate coordinates that are 1 at the test point; when no
    candidate fires the conditional mean is 0 by direct computation.
    """
    if s == 0:
        return 0.0
    return (1.0 - eps) / (1.0 - 2.0 * eps + k_size * eps / s)


def posterior_threshold(k_size: int, eps: float) -> int:
    """Smallest S for which the rule predicts 1 given K = k_size, or K + 1 if it never does.

    The rule predicts 1 iff the posterior mean is at least 1/2, and the mean
    is nondecreasing in S, so binary search on that decision is exact.
    """
    if posterior_mean_label(k_size, k_size, eps) < 0.5:
        return k_size + 1
    lo, hi = 1, k_size
    while lo < hi:
        mid = (lo + hi) // 2
        if posterior_mean_label(k_size, mid, eps) >= 0.5:
            hi = mid
        else:
            lo = mid + 1
    return lo


class MemorizerPredictor:
    """Memorized sample labels, keyed as a PointSet keys its points, with a
    default bit elsewhere."""

    __slots__ = ("mapping", "default", "n")

    def __init__(self, mapping: dict[tuple[int, bytes], int], default: int, n: int):
        self.mapping = mapping
        self.default = default
        self.n = n

    def predict(self, points: PointSet) -> list[int]:
        """The predicted label of each point of `points`, in order."""
        if points.n != self.n:
            raise DimensionMismatchError(f"points have n={points.n}, predictor has n={self.n}")
        get, default = self.mapping.get, self.default
        return [get(key, default) for key in points.keys()]


def consistent_memorizer(sample: LabeledSample, default: int = 0) -> MemorizerPredictor:
    """Predictor that repeats the sample labels and answers `default` elsewhere."""
    mapping: dict[tuple[int, bytes], int] = {}
    keys = row_keys(sample.words, sample.n)
    for r, (key, label) in enumerate(zip(keys, sample.labels.tolist())):
        if mapping.setdefault(key, label) != label:
            raise InconsistentSampleError(
                f"conflicting labels for point {bit_string(sample.words[r], sample.n)!r}")
    return MemorizerPredictor(mapping, default, sample.n)
