"""Integer corpora and the three observed distributions derived from them.

A corpus is an ordered multiset of non-negative integers as printed in the
source document, each small enough to convert to a finite float, so that
every statistic is a number; a larger value is an IngestError.  Three
views feed the conformity analyses:

- first-digit histogram over 1..9 (zeros carry no leading digit and are
  skipped),
- rank-frequency table of distinct values, ranked by descending count,
- decimal-length histogram (zero prints as "0" and counts as length 1).

A corpus keeps its integers as one read-only array in document order:
int64, or an object array of Python ints when a value does not fit in
int64.  All three views and the summary statistics depend only on how
often each distinct value occurs, so they read one sorted table,
``NumberCorpus._ascending``, counted by ``np.unique`` when the corpus is
built: the distinct values in ascending order, with the running count of
the values below each.  The range checks read its two ends, the median
bisects the running counts, the digit and length histograms are summed
in one pass over its runs of equal first digit and length, and the rank
table re-sorts the sorted values by count.  No Python int is made per
value; ``values`` builds the tuple of ints only when it is read.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpusError, EmptyHistogramError, IngestError


def _int_array(ints: list[int]) -> np.ndarray:
    """The Python ints ``ints`` as an int64 array or, when one of them does
    not fit in int64, as a 1-d object array of the same ints."""
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


@dataclass(frozen=True)
class NumberCorpus:
    """Ordered multiset of non-negative integers with source metadata.

    ``values`` may be any iterable of integers: ints, bools or numpy
    integers, each checked with ``operator.index``.  Anything else, such as
    a float or a string, is a TypeError; extraction converts its tokens
    itself.  A 1-d int64 array is taken whole when it is read-only and owns
    its data, and copied otherwise: a read-only view of a writeable array
    would change with it.  Reading ``values`` gives a tuple of ints.
    """

    label: str
    values: tuple[int, ...]
    year: int | None = None

    def __post_init__(self):
        if not len(self):
            raise EmptyCorpusError(f"corpus {self.label!r} has no values")
        distinct, counts = np.unique(self._values, return_counts=True)
        distinct = distinct.tolist()
        if distinct[0] < 0:
            raise ValueError(f"corpus {self.label!r} contains negative values")
        largest = distinct[-1]
        try:
            float(largest)
        except OverflowError:
            raise IngestError(
                f"corpus {self.label!r} holds a {largest.bit_length()}-bit value, "
                "too large to convert to a float"
            ) from None
        # The distinct values in ascending order, and the running counts:
        # ``running[i]`` values lie below ``distinct[i]``, and the last entry
        # is the corpus size.  The counts are summed in place and copied
        # once, into machine integers.
        counts = counts.astype(np.int64, copy=False)
        np.cumsum(counts, out=counts)
        running = array("q", [0])
        running.frombytes(counts.data.cast("B"))
        object.__setattr__(self, "_ascending", (distinct, running))

    def __len__(self):
        return len(self._values)

    def _digit_and_length_counts(self) -> tuple[list[int], list[int]]:
        """Occurrences per first digit 0..9 and per decimal length 1..L_max;
        zero is digit 0 and length 1.  The values sharing both form one run
        of the sorted distinct values, found with one ``str()`` and one
        bisection however many values it holds."""
        distinct, running = self._ascending
        digits = [0] * 10
        lengths = [0] * len(str(distinct[-1]))
        i = 0
        while i < len(distinct):
            text = str(distinct[i])
            d, k = int(text[0]), len(text)
            end = bisect_left(distinct, (d + 1) * 10 ** (k - 1), i)
            digits[d] += running[end] - running[i]
            lengths[k - 1] += running[end] - running[i]
            i = end
        return digits, lengths


def _values_tuple(corpus: NumberCorpus) -> tuple[int, ...]:
    return tuple(corpus._values.tolist())


def _keep_values(corpus: NumberCorpus, values) -> None:
    """Keep ``values`` as the corpus's read-only array; only ``__init__``
    sets the field, as the dataclass is frozen."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64 and values.ndim == 1:
        if values.flags.writeable or not values.flags.owndata:
            values = values.copy()
    else:
        values = _int_array(list(map(operator.index, values)))
    values.flags.writeable = False
    object.__setattr__(corpus, "_values", values)


# installed after the dataclass is made, so that ``values`` stays its field
# and the generated __init__, __eq__, __hash__ and __repr__ read and set
# it through this property
NumberCorpus.values = property(_values_tuple, _keep_values)


@dataclass(frozen=True)
class CorpusStats:
    observation_count: int
    max: int
    min: int
    mean: float
    median: float


def corpus_stats(corpus: NumberCorpus) -> CorpusStats:
    """Exact count/max/min, mean and sorted-middle median.

    Computed on Python integers from the sorted count table, so
    arbitrarily large values stay exact: the mean is the exact total
    divided by n, and the median is read off cumulative counts the way
    ``statistics.median`` reads the sorted values.
    """
    distinct, running = corpus._ascending
    n = running[-1]
    # sorted position i holds the last value with at most i values below it
    low = distinct[bisect_right(running, (n - 1) // 2) - 1]
    high = distinct[bisect_right(running, n // 2) - 1]
    return CorpusStats(
        observation_count=n,
        max=distinct[-1],
        min=distinct[0],
        mean=sum(map(operator.mul, distinct, np.diff(running).tolist())) / n,
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
        counts, _ = corpus._digit_and_length_counts()
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
        _, counts = corpus._digit_and_length_counts()
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
        distinct, running = corpus._ascending
        counts = np.diff(running)
        # stable: equal counts keep their ascending order
        order = np.argsort(-counts, kind="stable")
        return cls(list(map(distinct.__getitem__, order.tolist())), counts[order].tolist())

    def __len__(self):
        return len(self.values)


def merge_corpora(corpora) -> NumberCorpus:
    """Concatenate several corpora into one multiset (no deduplication)."""
    corpora = list(corpora)
    if not corpora:
        raise EmptyCorpusError("no corpora to merge")
    values = np.concatenate([c._values for c in corpora])
    values.flags.writeable = False  # a new array: the corpus may take it whole
    return NumberCorpus(label="pooled", values=values)
