"""Point evaluation and normalization of the three candidate laws."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import histogram
from numlaws import (
    BenfordModel,
    GammaModel,
    ZipfModel,
    discrete_normalize,
    fit_benford,
    fit_gamma,
    fit_zipf,
)
from numlaws.errors import DegenerateModelError
from numlaws.pipeline import _encode

POOLED_DIGIT_LAW = GammaModel(amplitude=0.38, rate=0.32, shape=1.027)


class TestBenford:
    def test_headline_percentages(self):
        benford = BenfordModel().weights(range(1, 10))
        assert round(benford[0], 5) == 0.30103
        assert round(benford[1], 5) == 0.17609
        assert round(benford[8], 5) == 0.04576

    def test_sums_to_one(self):
        total = sum(BenfordModel().weights(range(1, 10)))
        assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("bad", [0, 10, -1, 3.5])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            BenfordModel().weights([bad])

    def test_weights_reject_non_digits(self):
        with pytest.raises(ValueError):
            BenfordModel().weights([0.5, 2.0])


class TestZipf:
    def test_rank_one_returns_scale(self):
        model = ZipfModel(exponent=1.3, scale=0.7)
        assert model.weights([1])[0] == pytest.approx(0.7, abs=1e-15)

    def test_pooled_parameterization(self):
        model = ZipfModel(exponent=0.75, scale=0.054)
        assert model.weights([1])[0] == pytest.approx(0.054, abs=1e-15)

    def test_rank_sixteen_canonical(self):
        assert ZipfModel(exponent=1.0, scale=1.0).weights([16])[0] == 0.0625

    def test_rank_below_one_rejected(self):
        with pytest.raises(ValueError):
            ZipfModel(exponent=1.0, scale=1.0).weights([0])

    def test_strictly_decreasing_for_positive_exponent(self):
        rng = np.random.default_rng(17)
        ranks = np.arange(1, 200, dtype=float)
        for _ in range(25):
            model = ZipfModel(
                exponent=float(rng.uniform(0.05, 3)), scale=float(rng.uniform(0.1, 5))
            )
            values = model.weights(ranks)
            assert np.all(np.diff(values) < 0)

    def test_normalized_pmf_independent_of_scale(self):
        ranks = np.arange(1, 50, dtype=float)
        base = discrete_normalize(ZipfModel(exponent=0.9, scale=1.0), ranks)
        scaled = discrete_normalize(ZipfModel(exponent=0.9, scale=123.0), ranks)
        np.testing.assert_allclose(base, scaled, atol=1e-15)


class TestGamma:
    def test_pointwise_value(self):
        # 0.38 * exp(-0.32): the x**(shape-1) factor is exactly 1 at x=1
        assert POOLED_DIGIT_LAW.weights([1.0])[0] == pytest.approx(0.2759366, abs=5e-8)

    def test_rate_zero_shape_one_is_constant(self):
        model = GammaModel(amplitude=0.4, rate=0.0, shape=1.0)
        values = model.weights(np.arange(1, 30, dtype=float))
        np.testing.assert_allclose(values, 0.4, atol=1e-15)

    def test_decay_dominates_small_power(self):
        at_one, at_two = POOLED_DIGIT_LAW.weights([1.0, 2.0])
        assert at_two < at_one

    def test_vanishes_at_infinity_for_positive_rate(self):
        assert POOLED_DIGIT_LAW.weights([5000.0])[0] < 1e-300

    def test_domain(self):
        with pytest.raises(ValueError):
            POOLED_DIGIT_LAW.weights([0.0])
        with pytest.raises(ValueError):
            POOLED_DIGIT_LAW.weights([-1.0])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            GammaModel(amplitude=1.0, rate=-0.1, shape=1.0)

    def test_canonical_normalization_integrates_to_one(self):
        """With amplitude = rate**shape / Gamma(shape) the continuous
        density integrates to 1 over (0, inf)."""
        for rate, shape in [(0.5, 2.0), (1.3, 0.8), (2.0, 3.5)]:
            amplitude = rate**shape / math.gamma(shape)
            model = GammaModel(amplitude=amplitude, rate=rate, shape=shape)
            integral, _ = quad(lambda x: model.weights([x])[0], 0, np.inf)
            assert abs(integral - 1.0) < 1e-6

    def test_normalization_invariant_under_amplitude_rescale(self):
        support = np.arange(1, 18, dtype=float)
        a = discrete_normalize(GammaModel(amplitude=0.002, rate=0.1, shape=0.951), support)
        b = discrete_normalize(GammaModel(amplitude=7.7, rate=0.1, shape=0.951), support)
        np.testing.assert_allclose(a, b, atol=1e-15)


class TestDiscreteNormalize:
    def test_zipf_two_points(self):
        pmf = discrete_normalize(ZipfModel(exponent=1.0, scale=1.0), [1, 2])
        np.testing.assert_allclose(pmf, [2 / 3, 1 / 3], atol=1e-15)

    def test_constant_gamma_uniform(self):
        pmf = discrete_normalize(GammaModel(amplitude=1.0, rate=0.0, shape=1.0), range(1, 6))
        np.testing.assert_allclose(pmf, np.full(5, 0.2), atol=1e-15)

    def test_pooled_digit_curve_strictly_decreasing(self):
        pmf = discrete_normalize(POOLED_DIGIT_LAW, range(1, 10))
        assert np.all(np.diff(pmf) < 0)

    def test_sums_to_one(self):
        rng = np.random.default_rng(29)
        support = np.arange(1, 40, dtype=float)
        for _ in range(25):
            model = GammaModel(
                amplitude=float(rng.uniform(0.01, 2)),
                rate=float(rng.uniform(0, 1.5)),
                shape=float(rng.uniform(-0.5, 3)),
            )
            pmf = discrete_normalize(model, support)
            assert abs(pmf.sum() - 1.0) < 1e-12

    def test_renormalization_is_idempotent(self):
        pmf = discrete_normalize(POOLED_DIGIT_LAW, range(1, 10))
        again = pmf / pmf.sum()
        np.testing.assert_allclose(pmf, again, atol=1e-12)

    def test_degenerate_mass_rejected(self):
        # rate so large the discrete weights underflow to zero everywhere
        model = GammaModel(amplitude=1.0, rate=1000.0, shape=1.0)
        with pytest.raises(DegenerateModelError):
            discrete_normalize(model, range(10, 20))


FITTERS = {"benford": fit_benford, "zipf": fit_zipf, "gamma": fit_gamma}


class TestModelSerialization:
    @pytest.mark.parametrize(
        "model",
        [
            BenfordModel(),
            ZipfModel(exponent=0.75, scale=0.054),
            GammaModel(amplitude=0.002, rate=math.exp(-5), shape=0.951),
        ],
    )
    def test_round_trip(self, model):
        """A fit of the model's own pmf writes JSON ``params`` that rebuild
        the fitted model exactly."""
        support = np.arange(1, 10, dtype=float)
        view = histogram(support, discrete_normalize(model, support))
        fit = FITTERS[model.name](view)
        payload = json.loads(_encode(fit))
        assert payload["model"] == model.name
        assert type(model)(**payload["params"]) == fit.model
