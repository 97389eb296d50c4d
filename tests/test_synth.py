"""Seeded draws from each law model, used as oracles throughout the suite."""

import math
import warnings

import numpy as np
import pytest

from numlaws import (
    BenfordModel,
    GammaModel,
    ZipfModel,
    discrete_normalize,
    sample,
)
from numlaws.errors import DegenerateModelError

DIGITS = range(1, 10)


class TestBenfordSampler:
    def test_single_draw_in_support(self):
        digits = sample(BenfordModel(), DIGITS, 1, 0)
        assert digits.shape == (1,)
        assert 1 <= digits[0] <= 9

    def test_digit_one_share_within_three_sigma(self):
        n = 10**6
        digits = sample(BenfordModel(), DIGITS, n, 42)
        share = float(np.mean(digits == 1))
        sigma = math.sqrt(0.301 * 0.699 / n)
        assert abs(share - math.log10(2)) < 3 * sigma
        assert abs(share - 0.301) < 0.0015

    def test_same_seed_reproduces_stream(self):
        a = sample(BenfordModel(), DIGITS, 5000, 99)
        b = sample(BenfordModel(), DIGITS, 5000, 99)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sample(BenfordModel(), DIGITS, 5000, 1)
        b = sample(BenfordModel(), DIGITS, 5000, 2)
        assert not np.array_equal(a, b)


class TestZipfSampler:
    def test_alpha_zero_uniform_within_five_sigma(self):
        n, v = 10**6, 10
        values = sample(ZipfModel(0.0, 1.0), range(1, v + 1), n, 11)
        counts = np.bincount(values, minlength=v + 1)[1:]
        expected = n / v
        sigma = math.sqrt(n * (1 / v) * (1 - 1 / v))
        assert np.all(np.abs(counts - expected) < 5 * sigma)

    def test_two_value_shares(self):
        n = 10**5
        values = sample(ZipfModel(1.0, 1.0), range(1, 3), n, 5)
        share = np.count_nonzero(values == 1) / n
        sigma = math.sqrt((2 / 3) * (1 / 3) / n)
        assert abs(share - 2 / 3) < 3 * sigma

    def test_values_inside_declared_support(self):
        values = sample(ZipfModel(0.75, 1.0), range(1, 201), 10**4, 8)
        assert values.min() >= 1
        assert values.max() <= 200

    def test_same_seed_identical_corpus(self):
        a = sample(ZipfModel(0.75, 1.0), range(1, 51), 10**4, 4)
        b = sample(ZipfModel(0.75, 1.0), range(1, 51), 10**4, 4)
        assert np.array_equal(a, b)


class TestGammaLengthSampler:
    def test_constant_density_uniform(self):
        n, l_max = 10**6, 6
        lengths = sample(GammaModel(1.0, 0.0, 1.0), range(1, l_max + 1), n, 3)
        counts = np.bincount(lengths, minlength=l_max + 1)[1:]
        sigma = math.sqrt(n * (1 / l_max) * (1 - 1 / l_max))
        assert np.all(np.abs(counts - n / l_max) < 5 * sigma)

    def test_pooled_length_parameters_within_three_sigma_everywhere(self):
        """Empirical pmf of 1e6 draws tracks the generating pmf at every
        length, per-category binomial bound."""
        n, l_max = 10**6, 17
        rate, shape = math.exp(-5), 1.0 - 0.049
        lengths = sample(GammaModel(1.0, rate, shape), range(1, l_max + 1), n, 42)
        pmf = discrete_normalize(GammaModel(1.0, rate, shape), np.arange(1, l_max + 1))
        counts = np.bincount(lengths, minlength=l_max + 1)[1:]
        empirical = counts / n
        sigma = np.sqrt(pmf * (1 - pmf) / n)
        assert np.all(np.abs(empirical - pmf) < 3 * sigma)

    def test_single_draw_support(self):
        lengths = sample(GammaModel(1.0, 0.5, 1.2), range(1, 10), 1, 1)
        assert lengths.shape == (1,)
        assert 1 <= lengths[0] <= 9

    def test_underflowing_mass_rejected(self):
        with pytest.raises(DegenerateModelError):
            sample(GammaModel(1.0, 1000.0, 1.0), range(1, 6), 10, 0)

    def test_overflowing_mass_rejected_without_warning(self):
        """Weights beyond the floats give the typed error, not numpy's
        overflow warning first."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateModelError):
                sample(GammaModel(1.0, 0.0, 1000.0), range(1, 2001), 5, 0)

    def test_n_validated(self):
        with pytest.raises(ValueError):
            sample(GammaModel(1.0, 0.1, 1.0), range(1, 6), 0, 0)


class TestSamplerConvergence:
    """At n=1e6 every category sits within 5 binomial SE of its pmf."""

    def assert_within_five_sigma(self, counts, pmf, n):
        empirical = counts / n
        sigma = np.sqrt(pmf * (1 - pmf) / n)
        assert np.all(np.abs(empirical - pmf) < 5 * sigma)

    def test_benford_sampler(self):
        n = 10**6
        digits = sample(BenfordModel(), DIGITS, n, 2718)
        pmf = discrete_normalize(BenfordModel(), np.arange(1, 10))
        self.assert_within_five_sigma(np.bincount(digits, minlength=10)[1:], pmf, n)

    def test_zipf_sampler(self):
        n, v = 10**6, 50
        values = sample(ZipfModel(0.75, 1.0), range(1, v + 1), n, 161803)
        pmf = discrete_normalize(ZipfModel(exponent=0.75, scale=1.0), np.arange(1, v + 1))
        counts = np.bincount(values, minlength=v + 1)[1:]
        self.assert_within_five_sigma(counts, pmf, n)

    def test_gamma_length_sampler(self):
        n, l_max = 10**6, 12
        lengths = sample(GammaModel(1.0, 0.25, 1.3), range(1, l_max + 1), n, 577)
        pmf = discrete_normalize(GammaModel(1.0, 0.25, 1.3), np.arange(1, l_max + 1))
        self.assert_within_five_sigma(np.bincount(lengths, minlength=l_max + 1)[1:], pmf, n)


class TestExactHistogram:
    """A model's pmf on a support is the noise-free histogram that the
    exact-recovery tests fit."""

    def test_benford_frequencies_exact(self):
        frequencies = discrete_normalize(BenfordModel(), range(1, 10))
        expected = [math.log10(1 + 1 / d) for d in range(1, 10)]
        np.testing.assert_allclose(frequencies, expected, atol=1e-15)

    def test_zipf_proportionality(self):
        ranks = np.arange(1, 501, dtype=float)
        freqs = discrete_normalize(ZipfModel(exponent=0.75, scale=1.0), ranks)
        ratio = freqs * ranks**0.75
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)

    def test_pooled_digit_model_strictly_decreasing(self):
        frequencies = discrete_normalize(GammaModel(0.38, 0.32, 1.027), range(1, 10))
        assert np.all(np.diff(frequencies) < 0)

    def test_frequencies_form_a_pmf(self):
        frequencies = discrete_normalize(GammaModel(0.002, 0.1, 0.951), range(1, 18))
        assert abs(sum(frequencies) - 1.0) < 1e-12
