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
``NumberCorpus.value_counts``, counted once per corpus.  Each view
inspects every distinct value once, weighted by its count, instead of
every occurrence; ``values`` keeps the document order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import EmptyCorpusError, EmptyHistogramError, IngestError


@dataclass(frozen=True)
class NumberCorpus:
    """Ordered multiset of non-negative integers with source metadata."""

    label: str
    values: tuple[int, ...]
    year: int | None = None

    def __post_init__(self):
        values = tuple(map(int, self.values))
        if not values:
            raise EmptyCorpusError(f"corpus {self.label!r} has no values")
        if min(values) < 0:
            raise ValueError(f"corpus {self.label!r} contains negative values")
        largest = max(values)
        try:
            float(largest)
        except OverflowError:
            raise IngestError(
                f"corpus {self.label!r} holds a {largest.bit_length()}-bit value, "
                "too large to convert to a float"
            ) from None
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.values)

    @cached_property
    def value_counts(self) -> Counter:
        """How often each distinct value occurs: the corpus's sufficient statistic.

        Built on first use and shared by every view; do not modify it.
        """
        return Counter(self.values)


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

    def to_dict(self):
        return {
            "observation_count": self.observation_count,
            "max": self.max,
            "min": self.min,
            "mean": self.mean,
            "median": self.median,
        }


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


@dataclass(frozen=True)
class DigitHistogram:
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
    def from_digits(cls, digits) -> "DigitHistogram":
        counter = Counter(int(d) for d in digits)
        bad = set(counter) - set(range(1, 10))
        if bad:
            raise ValueError(f"digits outside 1..9: {sorted(bad)}")
        return cls(tuple(counter.get(d, 0) for d in range(1, 10)))

    @classmethod
    def from_corpus(cls, corpus: NumberCorpus) -> "DigitHistogram":
        digits = _count_by(corpus, first_digit)
        if not digits:
            raise EmptyHistogramError(
                f"corpus {corpus.label!r} has no nonzero values for digit analysis"
            )
        return cls(tuple(digits.get(d, 0) for d in range(1, 10)))

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def support(self) -> np.ndarray:
        return np.arange(1, 10, dtype=float)

    @property
    def frequencies(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.total


@dataclass(frozen=True)
class LengthHistogram:
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
    def from_lengths(cls, lengths) -> "LengthHistogram":
        counter = Counter(int(x) for x in lengths)
        if any(k < 1 for k in counter):
            raise ValueError("lengths must be >= 1")
        l_max = max(counter)
        return cls(tuple(counter.get(k, 0) for k in range(1, l_max + 1)))

    @classmethod
    def from_corpus(cls, corpus: NumberCorpus) -> "LengthHistogram":
        lengths = _count_by(corpus, decimal_length)
        return cls(tuple(lengths.get(k, 0) for k in range(1, max(lengths) + 1)))

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
class RankFrequencyTable:
    """Distinct values ranked 1..V by descending count, ties by ascending value."""

    values: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.counts) or not self.values:
            raise ValueError("values and counts must be equal-length and non-empty")
        if any(c < 1 for c in self.counts):
            raise ValueError("rank-frequency counts must be positive")
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @classmethod
    def from_corpus(cls, corpus: NumberCorpus) -> "RankFrequencyTable":
        ordered = sorted(corpus.value_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        values, counts = zip(*ordered)
        return cls(values, counts)

    def __len__(self):
        return len(self.values)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def ranks(self) -> np.ndarray:
        return np.arange(1, len(self.values) + 1, dtype=float)

    # the fitting support for a rank table is the rank axis
    support = ranks

    @property
    def frequencies(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.total


def digit_histogram(corpus: NumberCorpus) -> DigitHistogram:
    return DigitHistogram.from_corpus(corpus)


def length_histogram(corpus: NumberCorpus) -> LengthHistogram:
    return LengthHistogram.from_corpus(corpus)


def rank_frequency(corpus: NumberCorpus) -> RankFrequencyTable:
    return RankFrequencyTable.from_corpus(corpus)


def merge_corpora(corpora, label="pooled") -> NumberCorpus:
    """Concatenate several corpora into one multiset (no deduplication)."""
    corpora = list(corpora)
    if not corpora:
        raise EmptyCorpusError("no corpora to merge")
    values = tuple(v for c in corpora for v in c.values)
    return NumberCorpus(label=label, values=values)
