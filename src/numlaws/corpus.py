"""Integer corpora and the three observed distributions derived from them.

A corpus is an ordered multiset of non-negative integers as printed in the
source document, each small enough to convert to a finite float, so that
every statistic is a number; a larger value is an IngestError.  Three
views feed the conformity analyses:

- first-digit histogram over 1..9 (zeros carry no leading digit and are
  skipped),
- rank-frequency table of distinct values, ranked by descending count,
- decimal-length histogram (zero prints as "0" and counts as length 1).

All three views and the summary statistics depend only on how often each
distinct value occurs, so they are built from one value->count table,
``NumberCorpus.value_counts``, counted when the corpus is built.  The
range checks read that table's distinct keys too.  Each view
inspects every distinct value once, weighted by its count, instead of
every occurrence; ``values`` keeps the document order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .errors import EmptyCorpusError, EmptyHistogramError, IngestError


@dataclass(frozen=True)
class NumberCorpus:
    """Ordered multiset of non-negative integers with source metadata.

    ``values`` may be any iterable of ints or integer strings, such as
    "1_234"; each is converted once, with ``int()``, into the tuple the
    corpus keeps.
    """

    label: str
    values: tuple[int, ...]
    year: int | None = None
    # how often each distinct value occurs: the corpus's sufficient
    # statistic, shared by every view; do not modify it
    value_counts: Counter = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(map(int, self.values))
        if not values:
            raise EmptyCorpusError(f"corpus {self.label!r} has no values")
        counts = Counter(values)
        if min(counts) < 0:
            raise ValueError(f"corpus {self.label!r} contains negative values")
        largest = max(counts)
        try:
            float(largest)
        except OverflowError:
            raise IngestError(
                f"corpus {self.label!r} holds a {largest.bit_length()}-bit value, "
                "too large to convert to a float"
            ) from None
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "value_counts", counts)

    def __len__(self):
        return len(self.values)


def _count_by(corpus: NumberCorpus, key) -> Counter:
    """Occurrences per ``key(value)``, one call per distinct value; None keys skipped."""
    counts = Counter()
    for value, count in corpus.value_counts.items():
        k = key(value)
        if k is not None:
            counts[k] += count
    return counts


@dataclass(frozen=True)
class CorpusStats:
    observation_count: int
    max: int
    min: int
    mean: float
    median: float


def corpus_stats(corpus: NumberCorpus) -> CorpusStats:
    """Exact count/max/min, mean and sorted-middle median.

    Computed on Python integers from the value->count table, so
    arbitrarily large values stay exact: the mean is the exact total
    divided by n, and the median is read off cumulative counts the way
    ``statistics.median`` reads the sorted values.
    """
    counts = corpus.value_counts
    n = len(corpus.values)
    distinct = sorted(counts)
    # sorted position i holds the first value whose cumulative count exceeds i
    cumulative = list(accumulate(counts[v] for v in distinct))
    low = distinct[bisect_right(cumulative, (n - 1) // 2)]
    high = distinct[bisect_right(cumulative, n // 2)]
    return CorpusStats(
        observation_count=n,
        max=distinct[-1],
        min=distinct[0],
        mean=sum(v * c for v, c in counts.items()) / n,
        median=float(low) if n % 2 else (low + high) / 2,
    )


def first_digit(n: int) -> int | None:
    """Leading decimal digit of ``n``; ``None`` for zero.

    Zero has no significant first digit and is excluded from digit
    analysis.  Invariant under appending zeros: first_digit(n * 10**k)
    equals first_digit(n).
    """
    n = int(n)
    if n < 0:
        raise ValueError("first_digit expects a non-negative integer")
    if n == 0:
        return None
    return int(str(n)[0])


def decimal_length(n: int) -> int:
    """Number of decimal digits in ``n``; zero prints as "0", length 1."""
    n = int(n)
    if n < 0:
        raise ValueError("decimal_length expects a non-negative integer")
    return len(str(n))


class _CountsView:
    """Counts over the support 1..len(counts), and their relative frequencies.

    Each view defines the ``counts`` field; fits read ``support`` and
    ``frequencies``.
    """

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def support(self) -> np.ndarray:
        return np.arange(1, len(self.counts) + 1, dtype=float)

    @property
    def frequencies(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.total


@dataclass(frozen=True)
class DigitHistogram(_CountsView):
    """Counts over first digits 1..9."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != 9 or any(c < 0 for c in counts):
            raise ValueError("DigitHistogram needs 9 non-negative counts")
        if sum(counts) == 0:
            raise EmptyHistogramError("digit histogram has no observations")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_corpus(cls, corpus: NumberCorpus) -> "DigitHistogram":
        digits = _count_by(corpus, first_digit)
        if not digits:
            raise EmptyHistogramError(
                f"corpus {corpus.label!r} has no nonzero values for digit analysis"
            )
        return cls(tuple(digits.get(d, 0) for d in range(1, 10)))


@dataclass(frozen=True)
class LengthHistogram(_CountsView):
    """Counts over decimal lengths 1..L_max (dense; interior zeros kept)."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if not counts or any(c < 0 for c in counts):
            raise ValueError("LengthHistogram needs non-negative counts")
        if sum(counts) == 0:
            raise EmptyHistogramError("length histogram has no observations")
        if counts[-1] == 0:
            counts = counts[: max(i for i, c in enumerate(counts) if c > 0) + 1]
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_corpus(cls, corpus: NumberCorpus) -> "LengthHistogram":
        lengths = _count_by(corpus, decimal_length)
        return cls(tuple(lengths.get(k, 0) for k in range(1, max(lengths) + 1)))


@dataclass(frozen=True)
class RankFrequencyTable(_CountsView):
    """Distinct values ranked 1..V by descending count, ties by ascending value."""

    values: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.counts) or not self.values:
            raise ValueError("values and counts must be equal-length and non-empty")
        counts = tuple(map(int, self.counts))
        if min(counts) < 1:
            raise ValueError("rank-frequency counts must be positive")
        object.__setattr__(self, "values", tuple(map(int, self.values)))
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_corpus(cls, corpus: NumberCorpus) -> "RankFrequencyTable":
        counts = corpus.value_counts
        # stable: equal counts keep the ascending order of the first sort
        values = sorted(counts)
        values.sort(key=counts.__getitem__, reverse=True)
        return cls(values, tuple(map(counts.__getitem__, values)))

    def __len__(self):
        return len(self.values)


def merge_corpora(corpora, label="pooled") -> NumberCorpus:
    """Concatenate several corpora into one multiset (no deduplication)."""
    corpora = list(corpora)
    if not corpora:
        raise EmptyCorpusError("no corpora to merge")
    values = chain.from_iterable(c.values for c in corpora)
    return NumberCorpus(label=label, values=values)
