"""Corpus types, summary statistics and the three observed distributions."""

import dataclasses
import statistics
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import zipf_corpus
from numlaws import (
    BenfordModel,
    NumberCorpus,
    corpus_stats,
    merge_corpora,
    sample,
)
from numlaws.corpus import DigitHistogram, LengthHistogram, RankFrequencyTable
from numlaws.errors import EmptyCorpusError, EmptyHistogramError, IngestError


def make_corpus(values, label="t"):
    return NumberCorpus(label=label, values=tuple(values))


def value_counts(corpus):
    """How often each distinct value occurs, read from the rank table."""
    table = RankFrequencyTable.from_corpus(corpus)
    return Counter(dict(zip(table.values, table.counts)))


class TestNumberCorpus:
    def test_rejects_empty(self):
        with pytest.raises(EmptyCorpusError):
            make_corpus([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_corpus([3, -1])

    @pytest.mark.parametrize("value", [10**400, 10**5000], ids=["1e400", "1e5000"])
    def test_rejects_values_too_large_for_a_float(self, value):
        """10**400 overflows the mean; 10**5000 also exceeds the digit
        limit of the str() the digit and length views call."""
        with pytest.raises(IngestError):
            make_corpus([1, value])

    def test_multiset_semantics_preserved(self):
        corpus = make_corpus([5, 5, 5, 1])
        assert corpus.values == (5, 5, 5, 1)
        assert len(corpus) == 4

    def test_counted_at_construction(self):
        """The sorted table is built with the corpus, and the rank table
        reads its value->count pairs."""
        corpus = make_corpus([5, 5, 5, 1])
        assert vars(corpus)["_ascending"] == ([1, 5], array("q", [0, 1, 4]))
        assert value_counts(corpus) == Counter({5: 3, 1: 1})

    def test_equality_hash_and_repr_ignore_the_counts(self):
        a, b = make_corpus([5, 1, 5]), make_corpus([5, 1, 5])
        b._ascending[0].append(7)  # a table nobody should modify, but one that differs
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b) == "NumberCorpus(label='t', values=(5, 1, 5), year=None)"
        assert a != make_corpus([1, 5, 5])

    def test_values_are_integers_kept_as_ints(self):
        corpus = NumberCorpus("t", [True, np.int64(12), 7, *np.array([3], dtype=np.uint8)])
        assert corpus.values == (1, 12, 7, 3)
        assert all(type(v) is int for v in corpus.values)

    def test_numpy_arrays_of_any_integer_type(self):
        big = NumberCorpus("t", np.array([2**63 + 5, 1, 2**64 - 1], dtype=np.uint64))
        assert big.values == (2**63 + 5, 1, 2**64 - 1)
        assert corpus_stats(big).max == 2**64 - 1
        small = NumberCorpus("t", np.array([3, 127, 3], dtype=np.int8))
        assert small.values == (3, 127, 3)
        mixed = NumberCorpus("t", [2**70, np.int64(2), np.uint64(2**64 - 1), 2, np.int8(7)])
        assert mixed.values == (2**70, 2, 2**64 - 1, 2, 7)
        assert value_counts(mixed) == Counter({2: 2, 7: 1, 2**64 - 1: 1, 2**70: 1})
        for corpus in (big, small, mixed):
            assert all(type(v) is int for v in corpus.values)

    def test_numpy_bools_are_not_integers(self):
        """numpy's bool is no index, unlike Python's."""
        with pytest.raises(TypeError):
            NumberCorpus("t", np.array([True, False]))

    def test_an_int64_array_is_kept_read_only_and_apart_from_its_source(self):
        source = np.array([4, 4, 9], dtype=np.int64)
        corpus = NumberCorpus("t", source)
        source[0] = 7
        assert corpus.values == (4, 4, 9)
        assert value_counts(corpus) == Counter({4: 2, 9: 1})
        assert not corpus._values.flags.writeable

    def test_a_read_only_view_of_a_writeable_array_is_copied(self):
        """A read-only slice still changes with its writeable base, so the
        corpus takes only a read-only array that owns its data whole."""
        base = np.array([5, 1, 5, 7], dtype=np.int64)
        view = base[:]
        view.flags.writeable = False
        corpus = NumberCorpus("x", view)
        base[:] = 9
        assert corpus.values == (5, 1, 5, 7)
        assert corpus_stats(corpus).max == 7
        owned = np.array([5, 1, 5, 7], dtype=np.int64)
        owned.flags.writeable = False
        assert NumberCorpus("x", owned)._values is owned

    @pytest.mark.parametrize("value", [1.5, 2.0, "12", "1_234", None])
    def test_rejects_values_that_are_not_integers(self, value):
        """No float is truncated and no string parsed: extraction
        converts its own tokens."""
        with pytest.raises(TypeError):
            make_corpus([3, value])

    def test_replace_recounts_and_rechecks(self):
        corpus = make_corpus([5, 5, 1])
        replaced = dataclasses.replace(corpus, values=(2, 2, 2))
        assert value_counts(replaced) == Counter({2: 3})
        assert value_counts(corpus) == Counter({5: 2, 1: 1})
        with pytest.raises(ValueError):
            dataclasses.replace(corpus, values=(2, -2))
        with pytest.raises(IngestError):
            dataclasses.replace(corpus, values=(2, 10**400))


class TestCorpusStats:
    def test_symmetric_case(self):
        stats = corpus_stats(make_corpus([1, 2, 3]))
        assert stats.observation_count == 3
        assert stats.max == 3
        assert stats.min == 1
        assert stats.mean == 2
        assert stats.median == 2

    def test_even_size_median(self):
        assert corpus_stats(make_corpus([0, 100, 100, 200])).median == 100

    def test_matches_bruteforce_recomputation(self):
        """Stats agree exactly with a sort-based recomputation."""
        rng = np.random.default_rng(11)
        values = [int(v) for v in rng.integers(0, 10**6, size=1000)]
        stats = corpus_stats(make_corpus(values))
        ordered = sorted(values)
        assert stats.observation_count == len(ordered)
        assert stats.min == ordered[0]
        assert stats.max == ordered[-1]
        assert stats.mean == sum(ordered) / len(ordered)
        mid = len(ordered) // 2
        expected_median = (ordered[mid - 1] + ordered[mid]) / 2
        assert stats.median == expected_median

    def test_huge_integers_stay_exact(self):
        corpus = make_corpus([91440300192181490, 0, 100])
        stats = corpus_stats(corpus)
        assert stats.max == 91440300192181490
        assert stats.min == 0


def only_digit(value) -> int:
    """The first digit of ``value``, as the digit histogram counts it."""
    return DigitHistogram.from_corpus(make_corpus([value])).counts.index(1) + 1


def only_length(value) -> int:
    """The decimal length of ``value``, as the length histogram counts it."""
    return len(LengthHistogram.from_corpus(make_corpus([value])).counts)


class TestFirstDigit:
    def test_leading_digit(self):
        assert only_digit(327524894000) == 3

    def test_zero_has_no_first_digit(self):
        hist = DigitHistogram.from_corpus(make_corpus([0, 0, 5]))
        assert hist.counts == (0, 0, 0, 0, 1, 0, 0, 0, 0)

    def test_seventeen_digit_value(self):
        assert only_digit(91440300192181490) == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            make_corpus([-3])

    def test_scale_invariance(self):
        """A value and the value times 10**k have the same first digit."""
        rng = np.random.default_rng(5)
        for n in rng.integers(1, 10**9, size=200):
            n = int(n)
            for k in (0, 1, 3, 8):
                assert only_digit(n) == only_digit(n * 10**k)


class TestDecimalLength:
    def test_zero_prints_as_one_digit(self):
        assert LengthHistogram.from_corpus(make_corpus([0])).counts == (1,)

    def test_lengths(self):
        assert [only_length(v) for v in (7, 42, 100, 10**16)] == [1, 2, 3, 17]


class TestDigitHistogram:
    def test_zero_values_excluded(self):
        hist = DigitHistogram.from_corpus(make_corpus([1, 1, 2, 0]))
        assert hist.counts == (2, 1, 0, 0, 0, 0, 0, 0, 0)
        np.testing.assert_allclose(hist.frequencies[:2], [2 / 3, 1 / 3])

    def test_one_per_decade_is_uniform(self):
        hist = DigitHistogram.from_corpus(make_corpus(range(10, 100, 10)))
        np.testing.assert_allclose(hist.frequencies, np.full(9, 1 / 9))

    def test_benford_sampled_share(self):
        """Digit-1 share of 1e5 Benford draws lands within 0.301 +/- 0.01."""
        digits = sample(BenfordModel(), range(1, 10), 10**5, 314)
        hist = DigitHistogram.from_corpus(make_corpus(digits))
        assert abs(hist.frequencies[0] - 0.301) < 0.01

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            values = [int(v) for v in rng.integers(1, 10**6, size=50)]
            hist = DigitHistogram.from_corpus(make_corpus(values))
            assert abs(hist.frequencies.sum() - 1.0) < 1e-12

    def test_all_zero_corpus_rejected(self):
        with pytest.raises(EmptyHistogramError):
            DigitHistogram.from_corpus(make_corpus([0, 0, 0]))


class TestRankFrequency:
    def test_direct_count(self):
        table = RankFrequencyTable.from_corpus(make_corpus([5, 5, 5, 7, 7, 9]))
        assert table.values == (5, 7, 9)
        np.testing.assert_allclose(table.frequencies, [1 / 2, 1 / 3, 1 / 6])

    def test_ties_break_by_ascending_value(self):
        table = RankFrequencyTable.from_corpus(make_corpus([3, 4]))
        assert table.values == (3, 4)
        np.testing.assert_allclose(table.frequencies, [0.5, 0.5])

    def test_sampled_rank_one_share_matches_generator(self):
        """Empirical rank-1 share sits within 3 binomial SE of the pmf."""
        n, support = 10**5, 100
        corpus = zipf_corpus(n, alpha=1.0, support_size=support, seed=77)
        table = RankFrequencyTable.from_corpus(corpus)
        weights = 1.0 / np.arange(1, support + 1)
        p1 = weights[0] / weights.sum()
        se = np.sqrt(p1 * (1 - p1) / n)
        assert abs(table.frequencies[0] - p1) < 3 * se

    def test_bijection_and_monotone_frequencies(self):
        rng = np.random.default_rng(21)
        values = [int(v) for v in rng.integers(1, 50, size=500)]
        table = RankFrequencyTable.from_corpus(make_corpus(values))
        assert len(set(table.values)) == len(table.values) == len(set(values))
        diffs = np.diff(table.frequencies)
        assert np.all(diffs <= 0)
        assert abs(table.frequencies.sum() - 1.0) < 1e-12


class TestLengthHistogram:
    def test_digit_counting(self):
        hist = LengthHistogram.from_corpus(make_corpus([0, 7, 42, 100]))
        assert hist.counts == (2, 1, 1)

    def test_powers_of_ten(self):
        hist = LengthHistogram.from_corpus(make_corpus([10**k for k in range(6)]))
        assert hist.counts == (1, 1, 1, 1, 1, 1)

    def test_count_conservation(self):
        rng = np.random.default_rng(3)
        values = [int(v) for v in rng.integers(0, 10**8, size=777)]
        hist = LengthHistogram.from_corpus(make_corpus(values))
        assert hist.total == len(values)
        assert abs(hist.frequencies.sum() - 1.0) < 1e-12

    def test_interior_gaps_are_kept(self):
        hist = LengthHistogram.from_corpus(make_corpus([5, 1000000]))
        assert hist.counts == (1, 0, 0, 0, 0, 0, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DigitHistogram((1.7,) * 9),
        lambda: LengthHistogram((0.4, 0.3)),
        lambda: RankFrequencyTable((1.9, 2.2), (3.5, 1.2)),
        lambda: RankFrequencyTable((1.9, 2.2), (3, 1)),
    ],
    ids=["digit_counts", "length_counts", "rank_counts", "rank_values"],
)
def test_views_take_integers_only(build):
    """A float count or ranked value is a TypeError, as a float value is
    for NumberCorpus, not truncated."""
    with pytest.raises(TypeError):
        build()


def test_views_take_numpy_integer_counts():
    counts = np.bincount([1, 2, 2, 9], minlength=10)[1:]
    hist = DigitHistogram(tuple(counts))
    assert hist.counts == (1, 2, 0, 0, 0, 0, 0, 0, 1)
    assert all(type(c) is int for c in hist.counts)


class TestMergeCorpora:
    def test_concatenates_in_order(self):
        a = make_corpus([1, 2], label="a")
        b = make_corpus([3], label="b")
        assert merge_corpora([a, b]).values == (1, 2, 3)

    def test_int64_and_python_int_corpora(self):
        small = NumberCorpus("a", np.array([2**63 - 1, 3], dtype=np.int64))
        large = make_corpus([2**64, 3, 2**63], label="b")
        pooled = merge_corpora([small, large])
        assert pooled.values == (2**63 - 1, 3, 2**64, 3, 2**63)
        assert all(type(v) is int for v in pooled.values)
        assert RankFrequencyTable.from_corpus(pooled).values == (3, 2**63 - 1, 2**63, 2**64)
        assert LengthHistogram.from_corpus(pooled).counts[-2:] == (2, 1)

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyCorpusError):
            merge_corpora([])


# a few distinct values, zeros and integers of 2**64 and above among them,
# each drawn repeatedly
_VALUE = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2**64, max_value=2**80),
)
_CORPUS_VALUES = st.lists(_VALUE, min_size=1, max_size=30).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=200)
)


# the edges of every first-digit and length class the views bisect at:
# d * 10**k - 1 and d * 10**k, and values past int64, 2**64 and near the
# float limit
_BOUNDARIES = sorted({
    0, 9, 10, 99, 100, 10**18, 2**64, 10**300,
    *(d * 10**k + e for k in (1, 2, 17, 18, 299) for d in range(1, 10) for e in (-1, 0)),
})


@settings(max_examples=200, deadline=None)
@given(_CORPUS_VALUES)
@example(_BOUNDARIES)
@example([0])
def test_views_from_value_counts_match_per_value_definitions(values):
    """The views and statistics built from the value->count table equal
    their definitions over every occurrence."""
    assert_views_match_definitions(values)


@pytest.mark.parametrize(
    "value", _BOUNDARIES, ids=lambda v: f"{str(v)[:3]}_{len(str(v))}digits"
)
def test_views_at_class_boundaries(value):
    """Each boundary value alone, and with 1 and 10**300 beside it, falls
    in the digit and length class its definition names."""
    assert_views_match_definitions([value])
    assert_views_match_definitions([1, value, value, 10**300])


def assert_views_match_definitions(values):
    corpus = make_corpus(values)
    assert corpus.values == tuple(values)

    digits = Counter(str(v)[0] for v in values if v != 0)
    if digits:
        expected = tuple(digits.get(d, 0) for d in "123456789")
        assert DigitHistogram.from_corpus(corpus).counts == expected
    else:
        with pytest.raises(EmptyHistogramError):
            DigitHistogram.from_corpus(corpus)

    lengths = Counter(len(str(v)) for v in values)
    expected = tuple(lengths.get(k, 0) for k in range(1, max(lengths) + 1))
    assert LengthHistogram.from_corpus(corpus).counts == expected

    ranked = sorted(Counter(values).items(), key=lambda kv: (-kv[1], kv[0]))
    table = RankFrequencyTable.from_corpus(corpus)
    assert table.values == tuple(v for v, _ in ranked)
    assert table.counts == tuple(c for _, c in ranked)

    stats = corpus_stats(corpus)
    assert stats.observation_count == len(values)
    assert stats.min == min(values) and stats.max == max(values)
    assert stats.mean == sum(values) / len(values)
    assert stats.median == float(statistics.median(values))
