"""Corpus types, summary statistics and the three observed distributions."""

import statistics
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numlaws import (
    NumberCorpus,
    corpus_stats,
    decimal_length,
    digit_histogram,
    first_digit,
    length_histogram,
    merge_corpora,
    rank_frequency,
    sample_benford_digits,
    sample_zipf_values,
)
from numlaws.corpus import DigitHistogram, LengthHistogram, RankFrequencyTable
from numlaws.errors import EmptyCorpusError, EmptyHistogramError


def make_corpus(values, label="t"):
    return NumberCorpus(label=label, values=tuple(values))


class TestNumberCorpus:
    def test_rejects_empty(self):
        with pytest.raises(EmptyCorpusError):
            make_corpus([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_corpus([3, -1])

    def test_multiset_semantics_preserved(self):
        corpus = make_corpus([5, 5, 5, 1])
        assert corpus.values == (5, 5, 5, 1)
        assert len(corpus) == 4


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


class TestFirstDigit:
    def test_leading_digit(self):
        assert first_digit(327524894000) == 3

    def test_zero_has_no_first_digit(self):
        assert first_digit(0) is None

    def test_seventeen_digit_value(self):
        assert first_digit(91440300192181490) == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            first_digit(-3)

    def test_scale_invariance(self):
        """first_digit(n) equals first_digit(n * 10**k) for all k >= 0."""
        rng = np.random.default_rng(5)
        for n in rng.integers(1, 10**9, size=200):
            n = int(n)
            for k in (0, 1, 3, 8):
                assert first_digit(n) == first_digit(n * 10**k)


class TestDecimalLength:
    def test_zero_prints_as_one_digit(self):
        assert decimal_length(0) == 1

    def test_lengths(self):
        assert [decimal_length(v) for v in (7, 42, 100, 10**16)] == [1, 2, 3, 17]


class TestDigitHistogram:
    def test_zero_values_excluded(self):
        hist = digit_histogram(make_corpus([1, 1, 2, 0]))
        assert hist.counts == (2, 1, 0, 0, 0, 0, 0, 0, 0)
        np.testing.assert_allclose(hist.frequencies[:2], [2 / 3, 1 / 3])

    def test_one_per_decade_is_uniform(self):
        hist = digit_histogram(make_corpus(range(10, 100, 10)))
        np.testing.assert_allclose(hist.frequencies, np.full(9, 1 / 9))

    def test_benford_sampled_share(self):
        """Digit-1 share of 1e5 Benford draws lands within 0.301 +/- 0.01."""
        digits = sample_benford_digits(10**5, seed=314)
        hist = DigitHistogram.from_digits(digits)
        assert abs(hist.frequencies[0] - 0.301) < 0.01

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            values = [int(v) for v in rng.integers(1, 10**6, size=50)]
            hist = digit_histogram(make_corpus(values))
            assert abs(hist.frequencies.sum() - 1.0) < 1e-12

    def test_all_zero_corpus_rejected(self):
        with pytest.raises(EmptyHistogramError):
            digit_histogram(make_corpus([0, 0, 0]))


class TestRankFrequency:
    def test_direct_count(self):
        table = rank_frequency(make_corpus([5, 5, 5, 7, 7, 9]))
        assert table.values == (5, 7, 9)
        np.testing.assert_allclose(table.frequencies, [1 / 2, 1 / 3, 1 / 6])

    def test_ties_break_by_ascending_value(self):
        table = rank_frequency(make_corpus([3, 4]))
        assert table.values == (3, 4)
        np.testing.assert_allclose(table.frequencies, [0.5, 0.5])

    def test_sampled_rank_one_share_matches_generator(self):
        """Empirical rank-1 share sits within 3 binomial SE of the pmf."""
        n, support = 10**5, 100
        corpus = sample_zipf_values(n, alpha=1.0, support_size=support, seed=77)
        table = rank_frequency(corpus)
        weights = 1.0 / np.arange(1, support + 1)
        p1 = weights[0] / weights.sum()
        se = np.sqrt(p1 * (1 - p1) / n)
        assert abs(table.frequencies[0] - p1) < 3 * se

    def test_bijection_and_monotone_frequencies(self):
        rng = np.random.default_rng(21)
        values = [int(v) for v in rng.integers(1, 50, size=500)]
        table = rank_frequency(make_corpus(values))
        assert len(set(table.values)) == len(table.values) == len(set(values))
        diffs = np.diff(table.frequencies)
        assert np.all(diffs <= 0)
        assert abs(table.frequencies.sum() - 1.0) < 1e-12


class TestLengthHistogram:
    def test_digit_counting(self):
        hist = length_histogram(make_corpus([0, 7, 42, 100]))
        assert hist.counts == (2, 1, 1)

    def test_powers_of_ten(self):
        hist = length_histogram(make_corpus([10**k for k in range(6)]))
        assert hist.counts == (1, 1, 1, 1, 1, 1)

    def test_count_conservation(self):
        rng = np.random.default_rng(3)
        values = [int(v) for v in rng.integers(0, 10**8, size=777)]
        hist = length_histogram(make_corpus(values))
        assert hist.total == len(values)
        assert abs(hist.frequencies.sum() - 1.0) < 1e-12

    def test_interior_gaps_are_kept(self):
        hist = length_histogram(make_corpus([5, 1000000]))
        assert hist.counts == (1, 0, 0, 0, 0, 0, 1)


class TestMergeCorpora:
    def test_concatenates_in_order(self):
        a = make_corpus([1, 2], label="a")
        b = make_corpus([3], label="b")
        assert merge_corpora([a, b]).values == (1, 2, 3)

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


@settings(max_examples=200, deadline=None)
@given(_CORPUS_VALUES)
def test_views_from_value_counts_match_per_value_definitions(values):
    """The views and statistics built from the value->count table equal
    their definitions over every occurrence."""
    corpus = make_corpus(values)
    assert corpus.values == tuple(values)

    digits = Counter(first_digit(v) for v in values if v != 0)
    if digits:
        expected = tuple(digits.get(d, 0) for d in range(1, 10))
        assert DigitHistogram.from_corpus(corpus).counts == expected
    else:
        with pytest.raises(EmptyHistogramError):
            DigitHistogram.from_corpus(corpus)

    lengths = Counter(decimal_length(v) for v in values)
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
