"""Law estimation: exact recovery, sampled recovery, and the fit contract."""

import collections
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import histogram, zipf_corpus
from numlaws import (
    BenfordModel,
    DigitHistogram,
    LengthHistogram,
    NumberCorpus,
    RankFrequencyTable,
    discrete_normalize,
    fit_benford,
    fit_gamma,
    fit_gamma_rate_zero,
    fit_zipf,
    fit_zipf_on_lengths,
    pooled_fit,
    sample,
)
from numlaws.errors import (
    FitFailureError,
    NumlawsError,
    UnderdeterminedFitError,
)
from numlaws import build_report, fitting
from numlaws.fitting import _gamma_projection, _gamma_start
from numlaws.laws import GammaModel
from numlaws.pipeline import DIMENSIONS


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
        fit = fit_benford(histogram(xs, benford))
        assert fit.scores.r_squared == 1.0
        assert fit.scores.kl == 0.0
        assert fit.scores.js == 0.0
        assert fit.scores.mape == 0.0

    def test_large_sample_scores_high(self):
        digits = sample(BenfordModel(), range(1, 10), 10**6, 123)
        fit = fit_benford(DigitHistogram(tuple(np.bincount(digits, minlength=10)[1:])))
        assert fit.scores.r_squared > 0.99

    def test_uniform_histogram_fails_verdict(self):
        fit = fit_benford(histogram(np.arange(1, 10), np.full(9, 1 / 9)))
        assert fit.scores.r_squared < 0.8
        assert fit.verdict.r_squared == "fail"


class TestZipfFit:
    def test_exact_pooled_parameters_recovered(self):
        ranks = np.arange(1, 501, dtype=float)
        freqs = 0.054 / ranks**0.75
        fit = fit_zipf(histogram(ranks, freqs))
        assert fit.model.exponent == pytest.approx(0.75, abs=1e-9)
        assert fit.model.scale == pytest.approx(0.054, abs=1e-9)
        assert fit.scores.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.residual_sum < 1e-12

    def test_canonical_harmonic_law(self):
        ranks = np.arange(1, 101, dtype=float)
        fit = fit_zipf(histogram(ranks, 1.0 / ranks))
        assert fit.model.exponent == pytest.approx(1.0, abs=1e-9)
        assert fit.model.scale == pytest.approx(1.0, abs=1e-9)

    def test_sampled_recovery(self):
        corpus = zipf_corpus(10**5, alpha=0.75, support_size=200, seed=4711)
        fit = fit_zipf(RankFrequencyTable.from_corpus(corpus))
        assert abs(fit.model.exponent - 0.75) < 0.05

    def test_scale_equivariance(self):
        """Scaling all frequencies by c scales the fitted scale by c and
        leaves the exponent unchanged."""
        ranks = np.arange(1, 60, dtype=float)
        rng = np.random.default_rng(31)
        freqs = 0.3 / ranks**0.8 * np.exp(rng.normal(0, 0.05, size=len(ranks)))
        base = fit_zipf(histogram(ranks, freqs))
        for c in (0.25, 3.0, 117.0):
            scaled = fit_zipf(histogram(ranks, c * freqs))
            assert scaled.model.exponent == pytest.approx(
                base.model.exponent, abs=1e-12
            )
            assert scaled.model.scale == pytest.approx(c * base.model.scale, rel=1e-12)

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedFitError):
            fit_zipf(histogram(np.array([1.0, 2.0]), np.array([1.0, 0.0])))

    def test_fitted_curve_evaluates_off_the_support(self):
        ranks = np.arange(1, 30, dtype=float)
        fit = fit_zipf(histogram(ranks, 0.2 / ranks**0.6))
        np.testing.assert_allclose(
            fit.model.weights([40.0]), [0.2 / 40.0**0.6], rtol=1e-9
        )

    def test_zero_frequency_points_kept_for_scoring(self):
        ranks = np.arange(1, 6, dtype=float)
        freqs = np.array([0.5, 0.3, 0.0, 0.15, 0.05])
        fit = fit_zipf(histogram(ranks, freqs))
        assert len(fit.curve) == 5
        assert all(v > 0 for v in fit.curve)

    @pytest.mark.parametrize(
        "freqs, reason",
        [
            # lengths of 10**307, 10**307, 10**308: exp(intercept) overflows
            ([2 / 3, 1 / 3], "scale must be positive and finite"),
            # lengths of 10**307, 10**308, 10**308: exp(intercept) underflows
            ([1 / 3, 2 / 3], "scale must be positive and finite"),
        ],
    )
    def test_scale_out_of_float_range_is_refused(self, freqs, reason):
        """Two adjacent long lengths fit a rank exponent near 213, whose
        scale is out of range: the fit is refused, not raised raw."""
        hist = histogram(np.array([307.0, 308.0]), np.array(freqs))
        with pytest.raises(FitFailureError, match=f"invalid parameters: {reason}") as excinfo:
            fit_zipf_on_lengths(hist)
        assert len(excinfo.value.best_params) == 2

    def test_overflowing_squared_error_is_refused(self):
        """A zero-frequency rank far up the steep line it left behind has a
        finite curve point whose square overflows."""
        hist = histogram(np.array([1.0, 2.0, 3.0]), np.array([1e-300, 1.0, 0.0]))
        with pytest.raises(FitFailureError, match="non-finite curve"):
            fit_zipf(hist)


class TestGammaFit:
    def test_raw_curve_parameter_recovery(self):
        """Fitting the unnormalized pooled digit curve recovers all three
        parameters, amplitude included."""
        xs = np.arange(1, 10, dtype=float)
        fit = fit_gamma(histogram(xs, gamma_curve(*POOLED_DIGIT_PARAMS, xs)))
        assert fit.model.amplitude == pytest.approx(0.38, abs=1e-3)
        assert fit.model.rate == pytest.approx(0.32, abs=1e-3)
        assert fit.model.shape == pytest.approx(1.027, abs=1e-3)
        assert fit.scores.r_squared >= 1 - 1e-9

    def test_noise_free_closure_residual(self):
        xs = np.arange(1, 10, dtype=float)
        fit = fit_gamma(histogram(xs, discrete_normalize(GammaModel(0.38, 0.32, 1.027), xs)))
        assert fit.residual_sum < 1e-12
        assert fit.scores.r_squared >= 1 - 1e-9

    def test_uniform_histogram_is_in_family(self):
        fit = fit_gamma(histogram(np.arange(1, 10, dtype=float), np.full(9, 1 / 9)))
        assert fit.model.rate == 0.0
        assert fit.model.shape == pytest.approx(1.0, abs=1e-6)
        assert fit.scores.r_squared == 1.0

    def test_pooled_length_curve_recovery(self):
        """Noise-free pooled length pmf on 1..12 reproduced pointwise."""
        xs = np.arange(1, 13, dtype=float)
        hist = histogram(xs, discrete_normalize(GammaModel(*POOLED_LENGTH_PARAMS), xs))
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
            discrete_normalize(GammaModel(*POOLED_LENGTH_PARAMS), xs)
        ) * np.exp(rng.normal(0, 0.1, size=len(xs)))
        log_xs = np.log(xs)
        start = _gamma_start(xs, freqs, log_xs, rate_zero=False)
        start_sse = float(np.sum(_gamma_projection(start, xs, freqs, log_xs)[0] ** 2))
        fit = fit_gamma(histogram(xs, freqs))
        assert fit.model.rate > 0
        assert fit.residual_sum <= start_sse
        assert fit.residual_sum <= fit_gamma_rate_zero(histogram(xs, freqs)).residual_sum

    def test_deterministic_bit_identical(self):
        xs = np.arange(1, 18, dtype=float)
        rng = np.random.default_rng(6)
        freqs = np.asarray(
            discrete_normalize(GammaModel(*POOLED_LENGTH_PARAMS), xs)
        ) * np.exp(rng.normal(0, 0.03, size=len(xs)))
        a = fit_gamma(histogram(xs, freqs))
        b = fit_gamma(histogram(xs, freqs))
        assert a.model == b.model
        assert a.curve == b.curve
        assert a.iterations == b.iterations

    def test_nested_dominance(self):
        """The 3-parameter fit never loses to the rate-pinned 2-parameter fit."""
        xs = np.arange(1, 18, dtype=float)
        hist = histogram(xs, discrete_normalize(GammaModel(*POOLED_LENGTH_PARAMS), xs))
        full = fit_gamma(hist)
        pinned = fit_gamma_rate_zero(hist)
        assert full.residual_sum <= pinned.residual_sum + 1e-9

    def test_underdetermined(self):
        with pytest.raises(UnderdeterminedFitError):
            fit_gamma(histogram(np.array([1.0, 2.0, 3.0]), np.array([0.9, 0.1, 0.0])))

    def test_iteration_starvation_raises_with_best_params(self, monkeypatch):
        xs = np.arange(1, 10, dtype=float)
        freqs = np.asarray(discrete_normalize(GammaModel(*POOLED_DIGIT_PARAMS), xs))
        monkeypatch.setattr(fitting, "_MAX_EVALUATIONS", 2)
        with pytest.raises(FitFailureError) as excinfo:
            fit_gamma(histogram(xs, freqs))
        assert excinfo.value.best_params is not None

    def test_run_still_going_after_1000_evaluations_is_refused(self):
        """Counts 2, 4 and 1 at lengths 76, 102 and 167 keep the full run
        going until the evaluation bound."""
        counts = [0] * 167
        counts[75], counts[101], counts[166] = 2, 4, 1
        with pytest.raises(
            FitFailureError, match="Gamma optimizer did not converge in 1000 evaluations"
        ):
            fit_gamma(LengthHistogram(tuple(counts)))

    def test_overflowing_curve_raises(self):
        """An exact power law of shape 131 on 100..300: the amplitude
        underflows to a subnormal and the curve's exp() overflows."""
        xs = np.array([100.0, 200.0, 300.0])
        freqs = (xs / 300.0) ** 130
        for fit in (fit_gamma, fit_gamma_rate_zero):
            with pytest.raises(FitFailureError, match="non-finite curve"):
                fit(histogram(xs, freqs))

    def test_residual_matches_independent_recomputation(self):
        xs = np.arange(1, 10, dtype=float)
        freqs = np.array([0.3, 0.2, 0.15, 0.1, 0.08, 0.07, 0.05, 0.03, 0.02])
        fit = fit_gamma(histogram(xs, freqs))
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
        full = fit_gamma(histogram(xs, frequencies))
        nested = fit_gamma_rate_zero(histogram(xs, frequencies))
    except NumlawsError:
        pass
    else:
        assert np.all(np.isfinite(full.curve))
        # both SSEs are recomputed from the curves, so allow round-off
        assert full.residual_sum <= nested.residual_sum * (1 + 1e-9) + 1e-15
    assert time.perf_counter() - started < FIT_SECONDS


def projection(theta, xs, freqs):
    return _gamma_projection(np.asarray(theta, dtype=float), xs, freqs, np.log(xs))


def profile_residual(theta, xs, freqs):
    return projection(theta, xs, freqs)[0]


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-6.0, max_value=1.0),
    st.floats(min_value=-5.0, max_value=20.0),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=12).filter(
        lambda f: sum(f) > 0
    ),
)
def test_gamma_jacobian_matches_central_difference(log_rate, shape, frequencies):
    """The exact variable-projection Jacobian agrees with a central
    difference of the profiled residual, for the full and the rate-zero fit."""
    xs = np.arange(1, len(frequencies) + 1, dtype=float)
    freqs = np.asarray(frequencies)
    h = 1e-6
    for theta in (np.array([log_rate, shape]), np.array([shape])):
        jacobian = projection(theta, xs, freqs)[1]
        assert jacobian.shape == (len(xs), len(theta))
        for i in range(len(theta)):
            step = np.zeros(len(theta))
            step[i] = h
            difference = (
                profile_residual(theta + step, xs, freqs)
                - profile_residual(theta - step, xs, freqs)
            ) / (2 * h)
            np.testing.assert_allclose(jacobian[:, i], difference, rtol=1e-5, atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([fitting._LOG_RATE_MIN, fitting._LOG_RATE_MAX, -1e4, 1e4, -699.9, 699.9]),
    st.sampled_from([-1e3, 1e3, -1e3 + 0.5, 1e3 - 0.5, 1.0]),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=12),
)
def test_gamma_jacobian_finite_at_extreme_theta(log_rate, shape, frequencies):
    """Log-rate at and beyond both clamps, shape at +-1e3: every entry of
    the Jacobian is finite, and 0 in the log-rate column where it is clamped."""
    xs = np.arange(1, len(frequencies) + 1, dtype=float)
    freqs = np.asarray(frequencies)
    jacobian = projection([log_rate, shape], xs, freqs)[1]
    assert np.all(np.isfinite(jacobian))
    if not fitting._LOG_RATE_MIN < log_rate < fitting._LOG_RATE_MAX:
        assert np.all(jacobian[:, 0] == 0.0)
    assert np.all(np.isfinite(projection([shape], xs, freqs)[1]))


def test_gamma_jacobian_finite_on_wide_support_at_top_rate():
    """rate * x overflows on a support reaching 3e4 at log-rate 699.9, but
    the curve is 0 there, and so is its derivative.  The residual's own
    log-curve overflows to -inf at that point, which numpy reports."""
    xs = np.array([1.0, 2.0, 3e4])
    freqs = np.array([0.5, 0.3, 0.2])
    with np.errstate(over="ignore"):
        jacobian = projection([699.9, 2.0], xs, freqs)[1]
    assert np.all(np.isfinite(jacobian))


def test_gamma_jacobian_zero_on_amplitude_zero_branch():
    """Where the curve is not finite the profiled amplitude is 0, the
    residual is the data and the Jacobian is 0."""
    xs = np.arange(1, 10, dtype=float)
    freqs = np.full(9, 1 / 9)
    with np.errstate(all="ignore"):
        for theta in ([math.nan, 2.0], [0.0, math.nan], [0.0, math.inf], [math.inf]):
            residual, jacobian, amplitude, _ = projection(theta, xs, freqs)
            assert amplitude == 0.0
            assert np.array_equal(residual, freqs)
            assert np.array_equal(jacobian, np.zeros((9, len(theta))))


def count_profile_calls(monkeypatch):
    """Count residual evaluations: every run calls ``_gamma_projection``
    once per evaluation, and keeps the amplitude of the point it ends at."""
    calls = []
    original = fitting._gamma_projection

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(fitting, "_gamma_projection", counted)
    return calls


@pytest.mark.parametrize("fit", [fit_gamma, fit_gamma_rate_zero])
def test_one_projection_per_evaluation(monkeypatch, fit):
    """One call gives a point's residual, Jacobian and amplitude, so a fit
    projects once per evaluation of its runs and never again."""
    xs = np.arange(1, 18, dtype=float)
    rng = np.random.default_rng(7)
    freqs = np.asarray(
        discrete_normalize(GammaModel(*POOLED_LENGTH_PARAMS), xs)
    ) * np.exp(rng.normal(0, 0.1, size=len(xs)))
    calls = count_profile_calls(monkeypatch)
    result = fit(histogram(xs, freqs))
    assert result.iterations > 5
    assert len(calls) == result.iterations


DIGITS = np.arange(1, 10, dtype=float)
# first digits of the benchmark's tiny corpus single_digit_with_zeros
SINGLE_DIGIT_WITH_ZEROS = np.array([3, 2, 0, 0, 1, 0, 0, 0, 0]) / 6
# first digits of the benchmark's fault (b) corpus: 1871, 7545..., 7988...,
# 5804477, 843190, 7067..., 400089832
FAULT_B_DIGITS = np.array([1, 0, 0, 1, 1, 0, 3, 1, 0]) / 7
# decimal lengths of the benchmark's fault (a) corpus
FAULT_A_LENGTHS = np.array([0.55, 0.23, 0.22])
UNBOUNDED_EVALUATIONS = 100


class TestUnboundedGammaFit:
    @pytest.mark.parametrize(
        "freqs, limit", [(SINGLE_DIGIT_WITH_ZEROS, 1 / 36), (FAULT_B_DIGITS, 3 / 49)]
    )
    def test_refused_within_evaluation_bound(self, monkeypatch, freqs, limit):
        """Both digit histograms approach their SSE infimum, the squares
        left outside the best adjacent pair, only as rate and shape grow
        without bound; the fit says so, early."""
        calls = count_profile_calls(monkeypatch)
        with pytest.raises(FitFailureError, match="no minimum at finite parameters") as excinfo:
            fit_gamma(histogram(DIGITS, freqs))
        assert len(calls) <= UNBOUNDED_EVALUATIONS
        assert f"approaches {limit!r} only as the parameters" in str(excinfo.value)
        assert len(excinfo.value.best_params) == 2

    def test_fault_a_lengths_keep_their_finite_nested_fit(self, monkeypatch):
        """Lengths (0.55, 0.23, 0.22) have a finite least-squares fit at
        rate 0 (SSE 0.0033), far below both limits at infinity (0.0484 for
        the full fit, 0.1013 at rate 0): fitted, not refused."""
        calls = count_profile_calls(monkeypatch)
        hist = histogram(np.arange(1.0, 4.0), FAULT_A_LENGTHS)
        full = fit_gamma(hist)
        assert len(calls) <= UNBOUNDED_EVALUATIONS
        nested = fit_gamma_rate_zero(hist)
        assert full.model == nested.model
        assert full.model.rate == 0.0
        assert full.residual_sum == pytest.approx(0.0032918, rel=1e-4)

    def test_rate_zero_fit_refused_toward_its_end_bin(self, monkeypatch):
        """A power law can only pile onto its first or last point.  Lengths
        1, 1, 1, 8, 11 and 14 (the benchmark's tiny corpus random04) fall
        toward 1/12, the SSE left when the curve holds only length 1."""
        calls = count_profile_calls(monkeypatch)
        counts = np.zeros(14)
        counts[[0, 7, 10, 13]] = [3, 1, 1, 1]
        hist = histogram(np.arange(1.0, 15.0), counts / 6)
        with pytest.raises(FitFailureError, match="no minimum at finite parameters") as excinfo:
            fit_gamma_rate_zero(hist)
        assert f"approaches {1 / 12!r} only" in str(excinfo.value)
        assert len(calls) <= UNBOUNDED_EVALUATIONS

    def test_rejected_trial_step_does_not_stop_the_run(self):
        """These digits have a finite fit (rate 21.5, shape 90.9) just below
        the limit at infinity.  On the way, one trial step lands within
        the stopping band; it is worse than the run's best point, so the
        run rejects it and goes on."""
        xs = np.arange(1, 11, dtype=float)
        freqs = np.array([1, 3, 0, 17, 4, 3, 4, 4, 0, 1]) / 37
        limit = float(np.sum(freqs[[0, 1, 2, 5, 6, 7, 8, 9]] ** 2))
        fit = fit_gamma(histogram(xs, freqs))
        assert fit.residual_sum < limit
        assert fit.model.rate == pytest.approx(21.5, rel=1e-2)

    @pytest.mark.parametrize("rate", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("shape", [0.5, 1.0, 3.0, 8.0])
    def test_exact_gamma_histograms_still_recovered(self, rate, shape):
        xs = np.arange(1, 13, dtype=float)
        fit = fit_gamma(histogram(xs, discrete_normalize(GammaModel(1.0, rate, shape), xs)))
        assert fit.model.rate == pytest.approx(rate, rel=1e-6)
        assert fit.model.shape == pytest.approx(shape, rel=1e-6)

    def test_full_fit_kept_when_only_the_nested_run_is_unbounded(self, monkeypatch):
        """A nested run stopped on its way to infinity stands for its limit
        SSE; the full run still runs and is kept when it beats that limit,
        and the fit is refused when it does not."""
        xs = DIGITS
        original = fitting._gamma_refine

        def nested_unbounded(limit):
            def refine(support, observed, log_support, rate_zero):
                if rate_zero:
                    return limit, np.array([40.0]), 7, True, 1.0
                return original(support, observed, log_support, rate_zero)
            return refine

        def new_view():
            """A new view: a view keeps its nested run, patched or not."""
            return histogram(xs, discrete_normalize(GammaModel(*POOLED_DIGIT_PARAMS), xs))

        monkeypatch.setattr(fitting, "_gamma_refine", nested_unbounded(1e-3))
        hist = new_view()
        fit = fit_gamma(hist)
        assert fit.model.rate == pytest.approx(POOLED_DIGIT_PARAMS[1], rel=1e-6)
        assert fit.iterations > 7
        with pytest.raises(FitFailureError, match=r"approaches 0\.001 only"):
            fit_gamma_rate_zero(hist)
        # a full fit that does not beat the nested limit is refused with it
        monkeypatch.setattr(fitting, "_gamma_refine", nested_unbounded(0.0))
        with pytest.raises(FitFailureError, match=r"approaches 0\.0 only"):
            fit_gamma(new_view())


class TestGammaRateZeroFit:
    def test_pure_power_law_recovered_exactly(self):
        xs = np.arange(1, 13, dtype=float)
        fit = fit_gamma_rate_zero(histogram(xs, 1.0 / xs))
        assert fit.model.rate == 0.0
        assert fit.model.shape == pytest.approx(0.0, abs=1e-6)
        assert fit.scores.r_squared >= 1 - 1e-9

    def test_pooled_length_data_prefers_full_fit(self):
        xs = np.arange(1, 18, dtype=float)
        hist = histogram(xs, discrete_normalize(GammaModel(*POOLED_LENGTH_PARAMS), xs))
        assert (
            fit_gamma_rate_zero(hist).scores.r_squared
            < fit_gamma(hist).scores.r_squared
        )

    def test_exponential_dominant_data_fails_in_the_tail(self):
        """A pure power law cannot track exponential decay: the tail
        residuals dominate and the tail-sensitive MAPE verdict fails."""
        xs = np.arange(1, 18, dtype=float)
        hist = histogram(xs, discrete_normalize(GammaModel(1.0, 0.5, 1.0), xs))
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


class TestNestedRunKept:
    """The full Gamma fit's nested rate-zero run is kept for the rate-zero
    candidate only on numlaws' own views, which are frozen; any other view
    gets a run of its own and is left as it was."""

    FREQUENCIES = (0.3, 0.25, 0.15, 0.1, 0.1, 0.05, 0.05)

    def test_a_view_without_a_dict_is_fitted(self):
        View = collections.namedtuple("View", "support frequencies")
        xs, frequencies = np.arange(1, 8, dtype=float), np.array(self.FREQUENCIES)
        view, reference = View(xs, frequencies), histogram(xs, frequencies)
        assert fit_gamma(view) == fit_gamma(reference)
        assert fit_gamma_rate_zero(view) == fit_gamma_rate_zero(reference)

    def test_a_view_whose_frequencies_change_gets_a_new_run(self):
        xs = np.arange(1, 8, dtype=float)
        view = histogram(xs, np.array(self.FREQUENCIES))
        fit_gamma_rate_zero(view)
        view.frequencies = np.array(self.FREQUENCIES[::-1])
        fresh = fit_gamma_rate_zero(histogram(xs, np.array(self.FREQUENCIES[::-1])))
        assert fit_gamma_rate_zero(view) == fresh
        assert fresh.model.shape == pytest.approx(2.532, abs=1e-3)

    def test_the_caller_s_view_is_left_untouched(self):
        view = histogram(np.arange(1, 8, dtype=float), np.array(self.FREQUENCIES))
        fit_gamma(view)
        fit_gamma_rate_zero(view)
        assert list(vars(view)) == ["support", "frequencies"]

    def test_a_length_histogram_runs_its_nested_fit_once(self, monkeypatch):
        calls = []
        original = fitting._gamma_refine

        def counted(support, observed, log_support, rate_zero):
            calls.append(rate_zero)
            return original(support, observed, log_support, rate_zero)

        monkeypatch.setattr(fitting, "_gamma_refine", counted)
        view = LengthHistogram.from_corpus(NumberCorpus("t", (7, 42, 42, 133, 5000) * 3))
        full = fit_gamma(view)
        pinned = fit_gamma_rate_zero(view)
        assert calls.count(True) == 1
        assert calls.count(False) == 1
        # the kept run gives what a run of its own gives
        copy = histogram(view.support, view.frequencies)
        assert (full, pinned) == (fit_gamma(copy), fit_gamma_rate_zero(copy))
        assert calls.count(True) == 3


class TestZipfOnLengths:
    def test_exact_power_law_lengths(self):
        xs = np.arange(1, 9, dtype=float)
        fit = fit_zipf_on_lengths(histogram(xs, 0.6 / xs**1.2))
        assert fit.scores.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_two_point_histogram_interpolates(self):
        fit = fit_zipf_on_lengths(histogram(np.array([1.0, 2.0]), np.array([0.7, 0.3])))
        assert fit.scores.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_gamma_tail_beats_zipf(self):
        xs = np.arange(1, 18, dtype=float)
        hist = histogram(xs, discrete_normalize(GammaModel(0.002, 0.1, 1.0 - 0.049), xs))
        assert (
            fit_zipf_on_lengths(hist).scores.r_squared
            < fit_gamma(hist).scores.r_squared
        )


class TestPooledFit:
    def test_single_corpus_equals_direct_fit(self):
        corpus = zipf_corpus(5000, alpha=0.75, support_size=100, seed=9)
        pooled = pooled_fit([corpus], RankFrequencyTable, fit_zipf)
        direct = fit_zipf(RankFrequencyTable.from_corpus(corpus))
        assert pooled.model == direct.model
        assert pooled.curve == direct.curve

    def test_duplicated_corpora_leave_fit_unchanged(self):
        corpus = zipf_corpus(5000, alpha=0.9, support_size=80, seed=10)
        once = pooled_fit([corpus], RankFrequencyTable, fit_zipf)
        thrice = pooled_fit([corpus, corpus, corpus], RankFrequencyTable, fit_zipf)
        assert thrice.model.exponent == pytest.approx(once.model.exponent, abs=1e-12)
        assert thrice.model.scale == pytest.approx(once.model.scale, abs=1e-12)

    def test_pooling_beats_individual_fits_on_average(self):
        """Monte-Carlo: pooled exponent error under the mean individual error."""
        truth = 0.75
        pooled_errors, individual_errors = [], []
        for trial in range(20):
            corpora = [
                zipf_corpus(
                    2000, alpha=truth, support_size=100, seed=5000 + trial * 10 + j
                )
                for j in range(5)
            ]
            fits = [fit_zipf(RankFrequencyTable.from_corpus(c)) for c in corpora]
            individual_errors.append(
                np.mean([abs(f.model.exponent - truth) for f in fits])
            )
            pooled = pooled_fit(corpora, RankFrequencyTable, fit_zipf)
            pooled_errors.append(abs(pooled.model.exponent - truth))
        assert np.mean(pooled_errors) < np.mean(individual_errors)

    def test_each_pooled_fit_is_of_the_dimension_s_law(self):
        """A report over two corpora pools each dimension under the law
        its registry record names, fitted to the merged corpus's view."""
        corpora = [
            NumberCorpus("a", tuple(range(1, 200)) * 3),
            NumberCorpus("b", tuple(range(5, 3000, 7)) * 2),
        ]
        pooled = build_report(corpora).pooled
        assert set(pooled) == set(DIMENSIONS)
        merged = NumberCorpus("ab", corpora[0].values + corpora[1].values)
        for dimension, spec in DIMENSIONS.items():
            assert pooled[dimension].model.name == spec.law
            assert pooled[dimension] == spec.fit_law(spec.view.from_corpus(merged))


class TestFitResultContract:
    def test_serialization_keys(self):
        xs = np.arange(1, 10, dtype=float)
        payload = fit_benford(histogram(xs, np.log10(1 + 1 / xs))).to_dict()
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

