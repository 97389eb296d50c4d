"""The four goodness-of-fit metrics and their classification thresholds."""

import math

import numpy as np
import pytest

from numlaws import classify_fit, js_divergence, kl_divergence, mape, r_squared
from numlaws.errors import DegenerateDataError
from numlaws.metrics import MetricScores, score_fit


def random_pmf_pairs(count, size=8, seed=0):
    """Strictly positive seeded pmf pairs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = rng.random(size) + 1e-3
        q = rng.random(size) + 1e-3
        yield p / p.sum(), q / q.sum()


class TestRSquared:
    def test_perfect_fit(self):
        assert r_squared([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 1.0

    def test_mean_predictor_scores_zero(self):
        p = np.array([1.0, 2.0, 3.0])
        assert r_squared(p, np.full(3, p.mean())) == pytest.approx(0.0, abs=1e-15)

    def test_hand_computed_case(self):
        assert r_squared([1, 2, 3], [1, 2, 4]) == pytest.approx(0.5, abs=1e-15)

    def test_constant_observed_rejected(self):
        with pytest.raises(DegenerateDataError):
            r_squared([0.5, 0.5], [0.4, 0.6])

    def test_constant_observed_with_exact_fit_is_one(self):
        assert r_squared([0.5, 0.5], [0.5, 0.5]) == 1.0

    def test_affine_invariance(self):
        """Same positive scale and shift on both sides leaves R^2 unchanged."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = rng.random(10)
            q = rng.random(10)
            a = float(rng.uniform(0.1, 5))
            b = float(rng.uniform(-2, 2))
            assert r_squared(a * p + b, a * q + b) == pytest.approx(
                r_squared(p, q), abs=1e-9
            )

    def test_can_be_negative(self):
        assert r_squared([0.1, 0.9], [0.9, 0.1]) < 0


class TestKL:
    def test_identity(self):
        p = np.array([0.25, 0.25, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_single_term(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_two_term_hand_computation(self):
        expected = 0.5 * math.log(2 / 3) + 0.5 * math.log(2)
        assert kl_divergence([0.5, 0.5], [0.75, 0.25]) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(0.14384, abs=1e-5)

    def test_nonnegative_zero_only_at_identity(self):
        for p, q in random_pmf_pairs(300, seed=42):
            d = kl_divergence(p, q)
            assert d >= 0.0
            if d == 0.0:
                np.testing.assert_allclose(p, q)

    def test_zero_fitted_mass_smoothed(self):
        d = kl_divergence([0.5, 0.5], [1.0, 0.0])
        assert math.isfinite(d) and d > 0

    def test_identity_exact_even_with_zero_entries(self):
        p = np.array([0.5, 0.0, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_not_a_pmf_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.6], [0.5, 0.5])

    def test_subnormal_fitted_mass_gives_finite_term(self):
        """p/q overflows for q = 1e-318; p*(log p - log q) does not."""
        p, q = 1e-8, 1e-318
        expected = p * (math.log(p) - math.log(q)) + (1 - p) * math.log((1 - p) / (1 - q))
        d = kl_divergence([p, 1 - p], [q, 1 - q])
        assert d == pytest.approx(expected, rel=1e-12)


class TestJS:
    def test_identity(self):
        p = np.array([0.3, 0.7])
        assert js_divergence(p, p) == 0.0

    def test_disjoint_support_maximal(self):
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_case(self):
        # frozen high-precision evaluation of the base-2 symmetric form
        assert js_divergence([0.5, 0.5], [0.75, 0.25]) == pytest.approx(
            0.0487949406953985, abs=1e-12
        )

    def test_symmetry_range_and_mixture_agreement(self):
        ln2 = math.log(2)
        for p, q in random_pmf_pairs(300, seed=7):
            js = js_divergence(p, q)
            assert 0.0 <= js <= 1.0
            assert js == pytest.approx(js_divergence(q, p), abs=1e-13)
            m = (p + q) / 2
            mixture = 0.5 * (kl_divergence(p, m) + kl_divergence(q, m)) / ln2
            assert js == pytest.approx(mixture, abs=1e-12)

    def test_natural_log_rescaling_consistency(self):
        """Base-e JS equals ln(2) times the base-2 value."""
        for p, q in random_pmf_pairs(50, seed=13):
            m = (p + q) / 2
            base_e = 0.5 * (kl_divergence(p, m) + kl_divergence(q, m))
            assert base_e == pytest.approx(math.log(2) * js_divergence(p, q), abs=1e-12)


class TestMape:
    def test_identity(self):
        assert mape([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_single_term(self):
        assert mape([1.0], [1.5]) == pytest.approx(0.5, abs=1e-15)

    def test_hand_computed_case(self):
        assert mape([2.0, 4.0], [1.0, 5.0]) == pytest.approx(0.375, abs=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            p = rng.random(12) + 0.01
            q = rng.random(12) + 0.01
            c = float(rng.uniform(0.01, 100))
            assert mape(c * p, c * q) == pytest.approx(mape(p, q), abs=1e-12)

    def test_zero_observed_terms_excluded(self):
        assert mape([0.0, 2.0], [5.0, 3.0]) == pytest.approx(0.5, abs=1e-15)

    def test_all_zero_observed_rejected(self):
        with pytest.raises(DegenerateDataError):
            mape([0.0, 0.0], [1.0, 2.0])

    def test_subnormal_observed_value_gives_inf(self):
        assert mape([5e-324, 1.0], [1.0, 1.0]) == math.inf


class TestClassifyFit:
    def test_strong_row(self):
        verdict = classify_fit(
            MetricScores(r_squared=0.955, kl=0.005, js=0.002, mape=0.081)
        )
        assert verdict.r_squared == "strong"
        assert verdict.kl == "acceptable"
        assert verdict.js == "acceptable"
        assert verdict.mape == "acceptable"

    def test_failing_r2_acceptable_kl(self):
        verdict = classify_fit(
            MetricScores(r_squared=0.671, kl=0.095, js=0.032, mape=0.397)
        )
        assert verdict.r_squared == "fail"
        assert verdict.kl == "acceptable"

    def test_perfect_fit(self):
        verdict = classify_fit(MetricScores(r_squared=1.0, kl=0.0, js=0.0, mape=0.0))
        assert verdict.r_squared == "strong"
        assert (verdict.kl, verdict.js, verdict.mape) == ("acceptable",) * 3

    def test_boundary_cases(self):
        assert classify_fit(
            MetricScores(r_squared=0.9, kl=0, js=0, mape=0)
        ).r_squared == "acceptable"
        assert classify_fit(
            MetricScores(r_squared=0.8, kl=0, js=0, mape=0)
        ).r_squared == "fail"


class TestScoreFit:
    def test_identity_scores(self):
        scores = score_fit([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
        assert scores.r_squared == 1.0
        assert scores.kl == 0.0
        assert scores.js == 0.0
        assert scores.mape == 0.0

    def test_constant_observed_bad_fit_scores_minus_inf(self):
        scores = score_fit([0.5, 0.5], [0.4, 0.6])
        assert scores.r_squared == -math.inf
        assert classify_fit(scores).r_squared == "fail"
