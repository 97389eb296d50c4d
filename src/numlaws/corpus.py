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
table: the median bisects the running counts, the digit and length
histograms sum one (first digit, length) -> count table over lengths and
over digits, and the rank table re-sorts the sorted values by count.
``values`` keeps the document order.
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

    @cached_property
    def _digits_by_length(self) -> Counter:
        """Occurrences per (first digit, decimal length) pair; zero is (0, 1).
        The values of first digit d and length k are the run [d * 10**(k - 1),
        (d + 1) * 10**(k - 1)) of the sorted distinct values, so each pair
        costs one ``str()`` and one bisection, however many values it holds."""
        distinct, running = self._ascending
        table = Counter()
        i = 0
        while i < len(distinct):
            text = str(distinct[i])
            d, k = int(text[0]), len(text)
            end = bisect_left(distinct, (d + 1) * 10 ** (k - 1), i)
            table[d, k] = running[end] - running[i]
            i = end
        return table


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


def _checked_counts(view: str, counts) -> tuple[int, ...]:
    """``counts`` as a tuple of ints, each checked with ``operator.index``,
    so a float count is a TypeError; they must be non-empty, non-negative
    and not all zero."""
    counts = tuple(map(operator.index, counts))
    if not counts or min(counts) < 0:
        raise ValueError(f"{view} needs non-negative counts")
    if sum(counts) == 0:
        raise EmptyHistogramError(f"{view} has no observations")
    return counts


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
        counts = _checked_counts("digit histogram", self.counts)
        if len(counts) != 9:
            raise ValueError("digit histogram needs 9 counts")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_corpus(cls, corpus: NumberCorpus) -> "DigitHistogram":
        counts = [0] * 10
        for (d, _), c in corpus._digits_by_length.items():
            counts[d] += c
        if not any(counts[1:]):
            raise EmptyHistogramError(
                f"corpus {corpus.label!r} has no nonzero values for digit analysis"
            )
        return cls(tuple(counts[1:]))


@dataclass(frozen=True)
class LengthHistogram(_CountsView):
    """Counts over decimal lengths 1..L_max (dense; interior zeros kept)."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = _checked_counts("length histogram", self.counts)
        if counts[-1] == 0:
            counts = counts[: max(i for i, c in enumerate(counts) if c > 0) + 1]
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_corpus(cls, corpus: NumberCorpus) -> "LengthHistogram":
        table = corpus._digits_by_length
        counts = [0] * max(k for _, k in table)
        for (_, k), c in table.items():
            counts[k - 1] += c
        return cls(tuple(counts))


@dataclass(frozen=True)
class RankFrequencyTable(_CountsView):
    """Distinct values ranked 1..V by descending count, ties by ascending value."""

    values: tuple[int, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        counts = _checked_counts("rank-frequency table", self.counts)
        if len(self.values) != len(counts):
            raise ValueError("rank-frequency table needs as many values as counts")
        if min(counts) < 1:
            raise ValueError("rank-frequency table needs positive counts")
        object.__setattr__(self, "values", tuple(map(operator.index, self.values)))
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
