"""Law estimation: exact recovery, sampled recovery, and estimator protocol."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numlaws import (
    BenfordFitter,
    DigitHistogram,
    GammaFitter,
    LengthHistogram,
    NumberCorpus,
    ZipfFitter,
    exact_histogram,
    fit_benford,
    fit_gamma,
    fit_gamma_rate_zero,
    fit_zipf,
    fit_zipf_on_lengths,
    pooled_fit,
    rank_frequency,
    sample_benford_digits,
    sample_zipf_values,
)
from numlaws.errors import (
    FitFailureError,
    NotFittedError,
    NumlawsError,
    UnderdeterminedFitError,
)
from numlaws import fitting
from numlaws.fitting import _gamma_profile, _gamma_start
from numlaws.laws import GammaModel, ZipfModel


def gamma_curve(amplitude, rate, shape, xs):
    """Independent generator-side evaluation of the Gamma form."""
    xs = np.asarray(xs, dtype=float)
    return amplitude * np.exp(-rate * xs) * xs ** (shape - 1.0)


POOLED_DIGIT_PARAMS = (0.38, 0.32, 1.027)
POOLED_LENGTH_PARAMS = (0.002, math.exp(-5), 1.0 - 0.049)


class TestBenfordFit:
    def test_exact_benford_histogram_is_perfect(self):
        xs = np.arange(1, 10, dtype=float)
        benford = np.log10(1 + 1 / xs)
        fit = fit_benford((xs, benford))
        assert fit.scores.r_squared == 1.0
        assert fit.scores.kl == 0.0
        assert fit.scores.js == 0.0
        assert fit.scores.mape == 0.0

    def test_large_sample_scores_high(self):
        digits = sample_benford_digits(10**6, seed=123)
        fit = fit_benford(DigitHistogram.from_digits(digits))
        assert fit.scores.r_squared > 0.99

    def test_uniform_histogram_fails_verdict(self):
        fit = fit_benford((np.arange(1, 10), np.full(9, 1 / 9)))
        assert fit.scores.r_squared < 0.8
        assert fit.verdict.r_squared == "fail"


class TestZipfFit:
    def test_exact_pooled_parameters_recovered(self):
        ranks = np.arange(1, 501, dtype=float)
        freqs = 0.054 / ranks**0.75
        fit = fit_zipf((ranks, freqs))
        assert fit.model.exponent == pytest.approx(0.75, abs=1e-9)
        assert fit.model.scale == pytest.approx(0.054, abs=1e-9)
        assert fit.scores.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.residual_sum < 1e-12

    def test_canonical_harmonic_law(self):
        ranks = np.arange(1, 101, dtype=float)
        fit = fit_zipf((ranks, 1.0 / ranks))
        assert fit.model.exponent == pytest.approx(1.0, abs=1e-9)
        assert fit.model.scale == pytest.approx(1.0, abs=1e-9)

    def test_sampled_recovery(self):
        corpus = sample_zipf_values(10**5, alpha=0.75, support_size=200, seed=4711)
        fit = fit_zipf(rank_frequency(corpus))
        assert abs(fit.model.exponent - 0.75) < 0.05

    def test_scale_equivariance(self):
        """Scaling all frequencies by c scales the fitted scale by c and
        leaves the exponent unchanged."""
        ranks = np.arange(1, 60, dtype=float)
        rng = np.random.default_rng(31)
        freqs = 0.3 / ranks**0.8 * np.exp(rng.normal(0, 0.05, size=len(ranks)))
        base = fit_zipf((ranks, freqs))
        for c in (0.25, 3.0, 117.0):
            scaled = fit_zipf((ranks, c * freqs))
            assert scaled.model.exponent == pytest.approx(
                base.model.exponent, abs=1e-12
            )
            assert scaled.model.scale == pytest.approx(c * base.model.scale, rel=1e-12)

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedFitError):
            fit_zipf((np.array([1.0, 2.0]), np.array([1.0, 0.0])))

    def test_zero_frequency_points_kept_for_scoring(self):
        ranks = np.arange(1, 6, dtype=float)
        freqs = np.array([0.5, 0.3, 0.0, 0.15, 0.05])
        fit = fit_zipf((ranks, freqs))
        assert len(fit.curve) == 5
        assert all(v > 0 for v in fit.curve)


class TestGammaFit:
    def test_raw_curve_parameter_recovery(self):
        """Fitting the unnormalized pooled digit curve recovers all three
        parameters, amplitude included."""
        xs = np.arange(1, 10, dtype=float)
        fit = fit_gamma((xs, gamma_curve(*POOLED_DIGIT_PARAMS, xs)))
        assert fit.model.amplitude == pytest.approx(0.38, abs=1e-3)
        assert fit.model.rate == pytest.approx(0.32, abs=1e-3)
        assert fit.model.shape == pytest.approx(1.027, abs=1e-3)
        assert fit.scores.r_squared >= 1 - 1e-9

    def test_noise_free_closure_residual(self):
        xs = np.arange(1, 10, dtype=float)
        fit = fit_gamma(exact_histogram(GammaModel(0.38, 0.32, 1.027), xs))
        assert fit.residual_sum < 1e-12
        assert fit.scores.r_squared >= 1 - 1e-9

    def test_uniform_histogram_is_in_family(self):
        fit = fit_gamma((np.arange(1, 10, dtype=float), np.full(9, 1 / 9)))
        assert fit.model.rate == 0.0
        assert fit.model.shape == pytest.approx(1.0, abs=1e-6)
        assert fit.scores.r_squared == 1.0

    def test_pooled_length_curve_recovery(self):
        """Noise-free pooled length pmf on 1..12 reproduced pointwise."""
        xs = np.arange(1, 13, dtype=float)
        hist = exact_histogram(GammaModel(*POOLED_LENGTH_PARAMS), xs)
        fit = fit_gamma(hist)
        observed = np.asarray(hist.frequencies)
        curve = np.asarray(fit.curve)
        assert np.max(np.abs(curve - observed) / observed) < 1e-4

    def test_descent_from_closed_form_start(self):
        """The fit is no worse than its closed-form start, nor than the
        nested rate-zero fit."""
        xs = np.arange(1, 18, dtype=float)
        rng = np.random.default_rng(7)
        freqs = np.asarray(
            exact_histogram(GammaModel(*POOLED_LENGTH_PARAMS), xs).frequencies
        ) * np.exp(rng.normal(0, 0.1, size=len(xs)))
        log_xs = np.log(xs)
        start = _gamma_start(xs, freqs, log_xs, rate_zero=False)
        start_sse = float(np.sum(_gamma_profile(start, xs, freqs, log_xs)[0] ** 2))
        fit = fit_gamma((xs, freqs))
        assert fit.model.rate > 0
        assert fit.residual_sum <= start_sse
        assert fit.residual_sum <= fit_gamma_rate_zero((xs, freqs)).residual_sum

    def test_deterministic_bit_identical(self):
        xs = np.arange(1, 18, dtype=float)
        rng = np.random.default_rng(6)
        freqs = np.asarray(
            exact_histogram(GammaModel(*POOLED_LENGTH_PARAMS), xs).frequencies
        ) * np.exp(rng.normal(0, 0.03, size=len(xs)))
        a = fit_gamma((xs, freqs))
        b = fit_gamma((xs, freqs))
        assert a.model == b.model
        assert a.curve == b.curve
        assert a.iterations == b.iterations

    def test_nested_dominance(self):
        """The 3-parameter fit never loses to the rate-pinned 2-parameter fit."""
        xs = np.arange(1, 18, dtype=float)
        hist = exact_histogram(GammaModel(*POOLED_LENGTH_PARAMS), xs)
        full = fit_gamma(hist)
        pinned = fit_gamma_rate_zero(hist)
        assert full.residual_sum <= pinned.residual_sum + 1e-9

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedFitError):
            fit_gamma((np.array([1.0, 2.0, 3.0]), np.array([0.9, 0.1, 0.0])))

    def test_iteration_starvation_raises_with_best_params(self, monkeypatch):
        xs = np.arange(1, 10, dtype=float)
        freqs = np.asarray(exact_histogram(GammaModel(*POOLED_DIGIT_PARAMS), xs).frequencies)
        monkeypatch.setattr(fitting, "_MAX_EVALUATIONS", 2)
        with pytest.raises(FitFailureError) as excinfo:
            GammaFitter().fit((xs, freqs))
        assert excinfo.value.best_params is not None

    def test_overflowing_curve_raises(self):
        """An exact power law of shape 131 on 100..300: the amplitude
        underflows to a subnormal and the curve's exp() overflows."""
        xs = np.array([100.0, 200.0, 300.0])
        freqs = (xs / 300.0) ** 130
        for fitter in (GammaFitter(), GammaFitter(rate_zero=True)):
            with pytest.raises(FitFailureError, match="non-finite curve"):
                fitter.fit((xs, freqs))

    def test_residual_matches_independent_recomputation(self):
        xs = np.arange(1, 10, dtype=float)
        freqs = np.array([0.3, 0.2, 0.15, 0.1, 0.08, 0.07, 0.05, 0.03, 0.02])
        fit = fit_gamma((xs, freqs))
        recomputed = float(np.sum((freqs - np.asarray(fit.curve)) ** 2))
        assert fit.residual_sum == pytest.approx(recomputed, abs=1e-9)


FIT_SECONDS = 2.0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=3, max_value=20).flatmap(
        lambda k: st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=k, max_size=k
        )
    )
)
def test_gamma_fit_is_finite_and_dominates_nested_fit(frequencies):
    """Any non-negative histogram on 1..k fits within the time bound to a
    finite curve no worse than the nested rate-zero fit, or is refused
    with a NumlawsError."""
    xs = np.arange(1, len(frequencies) + 1, dtype=float)
    started = time.perf_counter()
    try:
        full = fit_gamma((xs, frequencies))
        nested = fit_gamma_rate_zero((xs, frequencies))
    except NumlawsError:
        pass
    else:
        assert np.all(np.isfinite(full.curve))
        # both SSEs are recomputed from the curves, so allow round-off
        assert full.residual_sum <= nested.residual_sum * (1 + 1e-9) + 1e-15
    assert time.perf_counter() - started < FIT_SECONDS


class TestGammaRateZeroFit:
    def test_pure_power_law_recovered_exactly(self):
        xs = np.arange(1, 13, dtype=float)
        fit = fit_gamma_rate_zero((xs, 1.0 / xs))
        assert fit.model.rate == 0.0
        assert fit.model.shape == pytest.approx(0.0, abs=1e-6)
        assert fit.scores.r_squared >= 1 - 1e-9

    def test_pooled_length_data_prefers_full_fit(self):
        xs = np.arange(1, 18, dtype=float)
        hist = exact_histogram(GammaModel(*POOLED_LENGTH_PARAMS), xs)
        assert (
            fit_gamma_rate_zero(hist).scores.r_squared
            < fit_gamma(hist).scores.r_squared
        )

    def test_exponential_dominant_data_fails_in_the_tail(self):
        """A pure power law cannot track exponential decay: the tail
        residuals dominate and the tail-sensitive MAPE verdict fails."""
        xs = np.arange(1, 18, dtype=float)
        hist = exact_histogram(GammaModel(1.0, 0.5, 1.0), xs)
        observed = np.asarray(hist.frequencies)
        full = fit_gamma(hist)
        pinned = fit_gamma_rate_zero(hist)
        tail = slice(8, None)
        tail_sq = lambda fit: float(
            np.sum((observed[tail] - np.asarray(fit.curve)[tail]) ** 2)
        )
        assert tail_sq(pinned) > 1e6 * tail_sq(full)
        assert pinned.verdict.mape == "fail"
        assert full.verdict.mape == "acceptable"


class TestZipfOnLengths:
    def test_exact_power_law_lengths(self):
        xs = np.arange(1, 9, dtype=float)
        fit = fit_zipf_on_lengths((xs, 0.6 / xs**1.2))
        assert fit.scores.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_two_point_histogram_interpolates(self):
        fit = fit_zipf_on_lengths((np.array([1.0, 2.0]), np.array([0.7, 0.3])))
        assert fit.scores.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_gamma_tail_beats_zipf(self):
        xs = np.arange(1, 18, dtype=float)
        hist = exact_histogram(GammaModel(0.002, 0.1, 1.0 - 0.049), xs)
        assert (
            fit_zipf_on_lengths(hist).scores.r_squared
            < fit_gamma(hist).scores.r_squared
        )


class TestPooledFit:
    def test_single_corpus_equals_direct_fit(self):
        corpus = sample_zipf_values(5000, alpha=0.75, support_size=100, seed=9)
        pooled = pooled_fit([corpus], "frequency")
        direct = fit_zipf(rank_frequency(corpus))
        assert pooled.model == direct.model
        assert pooled.curve == direct.curve

    def test_duplicated_corpora_leave_fit_unchanged(self):
        corpus = sample_zipf_values(5000, alpha=0.9, support_size=80, seed=10)
        once = pooled_fit([corpus], "frequency")
        thrice = pooled_fit([corpus, corpus, corpus], "frequency")
        assert thrice.model.exponent == pytest.approx(once.model.exponent, abs=1e-12)
        assert thrice.model.scale == pytest.approx(once.model.scale, abs=1e-12)

    def test_pooling_beats_individual_fits_on_average(self):
        """Monte-Carlo: pooled exponent error under the mean individual error."""
        truth = 0.75
        pooled_errors, individual_errors = [], []
        for trial in range(20):
            corpora = [
                sample_zipf_values(
                    2000, alpha=truth, support_size=100, seed=5000 + trial * 10 + j
                )
                for j in range(5)
            ]
            fits = [fit_zipf(rank_frequency(c)) for c in corpora]
            individual_errors.append(
                np.mean([abs(f.model.exponent - truth) for f in fits])
            )
            pooled = pooled_fit(corpora, "frequency")
            pooled_errors.append(abs(pooled.model.exponent - truth))
        assert np.mean(pooled_errors) < np.mean(individual_errors)

    def test_dimension_model_mapping(self):
        corpus = NumberCorpus("m", tuple(range(1, 200)) * 3)
        assert isinstance(pooled_fit([corpus], "first_digit").model, GammaModel)
        assert isinstance(pooled_fit([corpus], "frequency").model, ZipfModel)
        assert isinstance(pooled_fit([corpus], "length").model, GammaModel)
        with pytest.raises(ValueError):
            pooled_fit([corpus], "volume")


class TestFitResultContract:
    def test_serialization_keys(self):
        xs = np.arange(1, 10, dtype=float)
        payload = fit_benford((xs, np.log10(1 + 1 / xs))).to_dict()
        assert set(payload) == {
            "model",
            "params",
            "support",
            "observed",
            "fitted",
            "scores",
            "verdict",
            "residual_sum",
            "iterations",
        }
        assert payload["model"] == "benford"
        assert len(payload["fitted"]) == len(payload["support"])


class TestEstimatorProtocol:
    def test_get_set_params_round_trip(self):
        fitter = GammaFitter(rate_zero=True)
        assert fitter.get_params() == {"rate_zero": True}
        fitter.set_params(rate_zero=False)
        assert fitter.rate_zero is False
        assert GammaFitter().get_params() == {"rate_zero": False}
        with pytest.raises(ValueError):
            fitter.set_params(bogus=1)

    def test_params_and_repr_of_every_fitter(self):
        """Fitters without their own __init__ have no parameters."""
        assert BenfordFitter().get_params() == {}
        assert ZipfFitter().get_params() == {}
        assert repr(BenfordFitter()) == "BenfordFitter()"
        assert repr(ZipfFitter()) == "ZipfFitter()"
        assert repr(GammaFitter(rate_zero=True)) == (
            "GammaFitter(rate_zero=True)"
        )

    def test_predict_before_fit_raises(self):
        for fitter in (BenfordFitter(), ZipfFitter(), GammaFitter()):
            with pytest.raises(NotFittedError):
                fitter.predict([1.0, 2.0])

    def test_predict_evaluates_fitted_curve_elsewhere(self):
        ranks = np.arange(1, 30, dtype=float)
        fitter = ZipfFitter().fit((ranks, 0.2 / ranks**0.6))
        np.testing.assert_allclose(
            fitter.predict([40.0]), [0.2 / 40.0**0.6], rtol=1e-9
        )

    def test_sklearn_clone_compatibility(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        fitter = GammaFitter(rate_zero=True)
        cloned = sklearn_base.clone(fitter)
        assert cloned.get_params() == fitter.get_params()
        assert cloned is not fitter
