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
``NumberCorpus.value_counts``, counted when the corpus is built; the
range checks read that table's distinct keys too.  The first view or
statistic asked for sorts the distinct values once, with the running
count of the values below each, and every other one reads that sorted
table: the median bisects the running counts, the length and digit
histograms take each run of values of one length, or of one first digit
and length, with one bisection, and the rank table re-sorts the sorted
values by count.  ``values`` keeps the document order.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from .errors import EmptyCorpusError, EmptyHistogramError, IngestError


@dataclass(frozen=True)
class NumberCorpus:
    """Ordered multiset of non-negative integers with source metadata.

    ``values`` may be any iterable of integers: ints, bools or numpy
    integers, each checked with ``operator.index`` into the tuple of ints
    the corpus keeps.  Anything else, such as a float or a string, is a
    TypeError; extraction converts its tokens itself.
    """

    label: str
    values: tuple[int, ...]
    year: int | None = None
    # how often each distinct value occurs: the corpus's sufficient
    # statistic, shared by every view; do not modify it
    value_counts: Counter = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(map(operator.index, self.values))
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

    @cached_property
    def _ascending(self) -> tuple[list[int], array]:
        """The distinct values in ascending order, and the running counts:
        ``running[i]`` values lie below ``distinct[i]``, and the last entry
        is the corpus size.  The counts are machine integers, so the table
        adds no int object to those the corpus holds."""
        counts = self.value_counts
        distinct = sorted(counts)
        return distinct, array("q", chain((0,), accumulate(map(counts.__getitem__, distinct))))

    def _count_groups(self, start: int, group) -> Counter:
        """Occurrences per group key of the values from ``start`` up.

        ``group(v)`` gives v's key and the least value above v with another
        key, so each group is one run of the sorted distinct values and
        costs one call and one bisection, however many values it holds.
        """
        distinct, running = self._ascending
        counts = Counter()
        i = bisect_left(distinct, start)
        while i < len(distinct):
            key, bound = group(distinct[i])
            end = bisect_left(distinct, bound, i)
            counts[key] += running[end] - running[i]
            i = end
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
    distinct, running = corpus._ascending
    n = running[-1]
    # sorted position i holds the last value with at most i values below it
    low = distinct[bisect_right(running, (n - 1) // 2) - 1]
    high = distinct[bisect_right(running, n // 2) - 1]
    return CorpusStats(
        observation_count=n,
        max=distinct[-1],
        min=distinct[0],
        mean=sum(map(operator.mul, counts.keys(), counts.values())) / n,
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


def _digit_group(n: int) -> tuple[int, int]:
    """``n``'s first digit d, and the end of its group: the values of
    first digit d and length k are [d * 10**(k - 1), (d + 1) * 10**(k - 1))."""
    d = first_digit(n)
    return d, (d + 1) * 10 ** (decimal_length(n) - 1)


def _length_group(n: int) -> tuple[int, int]:
    """``n``'s decimal length k, and the end of its group, 10**k."""
    k = decimal_length(n)
    return k, 10**k


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
        digits = corpus._count_groups(1, _digit_group)
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
        lengths = corpus._count_groups(0, _length_group)
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
        # stable: equal counts keep their ascending order
        values = sorted(corpus._ascending[0], key=counts.__getitem__, reverse=True)
        return cls(values, tuple(map(counts.__getitem__, values)))

    def __len__(self):
        return len(self.values)


def merge_corpora(corpora) -> NumberCorpus:
    """Concatenate several corpora into one multiset (no deduplication)."""
    corpora = list(corpora)
    if not corpora:
        raise EmptyCorpusError("no corpora to merge")
    values = chain.from_iterable(c.values for c in corpora)
    return NumberCorpus(label="pooled", values=values)
