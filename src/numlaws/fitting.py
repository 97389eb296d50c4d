"""Least-squares estimation of the three laws from observed histograms.

Estimators follow the scikit-learn protocol: construct with
hyperparameters, ``fit(X)`` where ``X`` is a histogram-like object (or a
``(support, frequencies)`` pair), fitted attributes carry a trailing
underscore, ``predict(support)`` evaluates the fitted curve.

- BenfordFitter has no free parameters; fitting only scores the data.
- ZipfFitter runs ordinary least squares on (log rank, log frequency);
  the slope is the negated exponent, the intercept the log scale.
  Zero-frequency support points are excluded from the regression but
  retained for scoring.
- GammaFitter minimizes squared error in linear frequency space by
  variable projection: the amplitude is profiled out exactly by a linear
  solve, and one Levenberg-Marquardt run refines (log rate, shape) from
  a closed-form least-squares start in log space.  The rate can be
  pinned to zero for the pure power-law comparison variant; the full fit
  runs that nested fit too and keeps whichever fits better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .base import BaseEstimator, check_is_fitted
from .corpus import (
    DigitHistogram,
    LengthHistogram,
    RankFrequencyTable,
    merge_corpora,
)
from .errors import FitFailureError, UnderdeterminedFitError
from .laws import BenfordModel, GammaModel, ZipfModel
from .metrics import FitVerdict, MetricScores, classify_fit, score_fit
from .validation import support_frequencies

# a fitted rate below the optimizer's resolution floor is the nested
# rate-zero model, and that fit is reported instead
_RATE_FLOOR = 1e-12
# exp(700) is near the float64 limit; at that rate every support point but
# the first has weight 0, so a larger log-rate changes no residual
_LOG_RATE_MAX = 700.0
# rate start when the closed-form slope shows no decay
_RATE_START = 1e-3


@dataclass(frozen=True)
class FitResult:
    """One fitted law with its curve, scores and verdict."""

    model: object
    support: tuple[float, ...]
    observed: tuple[float, ...]
    curve: tuple[float, ...]
    scores: MetricScores
    verdict: FitVerdict
    residual_sum: float
    iterations: int

    def to_dict(self):
        return {
            "model": self.model.name,
            "params": self.model.params(),
            "support": list(self.support),
            "observed": list(self.observed),
            "fitted": list(self.curve),
            "scores": self.scores.to_dict(),
            "verdict": self.verdict.to_dict(),
            "residual_sum": self.residual_sum,
            "iterations": self.iterations,
        }


def _build_result(model, support, observed, curve, iterations) -> FitResult:
    scores = score_fit(observed, curve)
    residual = float(np.sum((observed - curve) ** 2))
    return FitResult(
        model=model,
        support=tuple(float(x) for x in support),
        observed=tuple(float(y) for y in observed),
        curve=tuple(float(y) for y in curve),
        scores=scores,
        verdict=classify_fit(scores),
        residual_sum=residual,
        iterations=int(iterations),
    )


class BenfordFitter(BaseEstimator):
    """Score observed first-digit frequencies against the fixed Benford pmf."""

    def fit(self, X, y=None):
        support, observed = support_frequencies(X)
        self.model_ = BenfordModel()
        self.support_ = support
        self.observed_ = observed
        self.curve_ = self.model_.weights(support)
        self.n_iter_ = 0
        return self

    def predict(self, support):
        check_is_fitted(self, "model_")
        return self.model_.weights(support)

    def result(self) -> FitResult:
        check_is_fitted(self, "model_")
        return _build_result(
            self.model_, self.support_, self.observed_, self.curve_, self.n_iter_
        )


class ZipfFitter(BaseEstimator):
    """Power-law fit by OLS in log-log space, scored in linear space."""

    def fit(self, X, y=None):
        support, observed = support_frequencies(X)
        if np.any(support < 1):
            raise ValueError("Zipf support (ranks) must be >= 1")
        mask = observed > 0
        if int(mask.sum()) < 2:
            raise UnderdeterminedFitError(
                "Zipf fit needs at least 2 positive-frequency ranks"
            )
        log_r = np.log(support[mask])
        log_f = np.log(observed[mask])
        centered = log_r - log_r.mean()
        denom = float(centered @ centered)
        if denom == 0.0:
            raise UnderdeterminedFitError("all ranks identical; slope undefined")
        slope = float(centered @ (log_f - log_f.mean())) / denom
        intercept = float(log_f.mean() - slope * log_r.mean())
        self.exponent_ = -slope
        self.scale_ = math.exp(intercept)
        self.model_ = ZipfModel(exponent=self.exponent_, scale=self.scale_)
        self.support_ = support
        self.observed_ = observed
        self.curve_ = self.model_.weights(support)
        self.n_iter_ = 0
        return self

    def predict(self, support):
        check_is_fitted(self, "model_")
        return self.model_.weights(support)

    def result(self) -> FitResult:
        check_is_fitted(self, "model_")
        return _build_result(
            self.model_, self.support_, self.observed_, self.curve_, self.n_iter_
        )


def _gamma_profile(theta, support, observed, log_support):
    """Residual of the best amplitude for one (rate, shape), solved exactly.

    ``theta`` is ``(shape,)`` for the rate-zero fit and ``(log rate,
    shape)`` otherwise.  Returns (residual, scaled_amplitude, log_scale)
    where the true amplitude is scaled_amplitude * exp(-log_scale); the
    shift keeps exp() in range for extreme shapes.
    """
    rate = math.exp(min(theta[0], _LOG_RATE_MAX)) if len(theta) == 2 else 0.0
    log_g = -rate * support + (theta[-1] - 1.0) * log_support
    shift = log_g.max()
    g = np.exp(log_g - shift)
    denom = float(g @ g)
    if denom == 0.0 or not math.isfinite(denom):
        # amplitude 0: the worst profiled fit, but a finite residual
        return observed, 0.0, 0.0
    amplitude = float(observed @ g) / denom
    return observed - amplitude * g, amplitude, shift


def _gamma_start(support, observed, log_support, rate_zero):
    """Closed-form start: least squares of log f on (1, log x, -x).

    Runs over the positive bins, each row weighted by its frequency so
    that its error approximates the residual in linear frequency space.
    The coefficients are (log amplitude, shape - 1, rate); the rate-zero
    start drops the ``-x`` column.  A slope that shows no decay starts
    the rate at ``_RATE_START``.
    """
    positive = observed > 0
    f = observed[positive]
    design = np.column_stack([np.ones_like(f), log_support[positive], -support[positive]])
    columns = 2 if rate_zero else 3
    coef = np.linalg.lstsq(f[:, None] * design[:, :columns], f * np.log(f), rcond=None)[0]
    shape = float(coef[1]) + 1.0
    if rate_zero:
        return np.array([shape])
    rate = float(coef[2]) if coef[2] > 0 else _RATE_START
    return np.array([math.log(rate), shape])


class GammaFitter(BaseEstimator):
    """Three-parameter discrete Gamma fit (or two with the rate pinned to 0).

    Variable projection: the amplitude is profiled out exactly, and one
    Levenberg-Marquardt run refines (log rate, shape) from a closed-form
    least-squares start in log space.  The full fit also runs the nested
    rate-zero fit and returns whichever has the lower squared error,
    preferring rate zero on a tie or when the fitted rate is below 1e-12.
    ``max_iter`` bounds the function evaluations of each run, ``xatol``
    is its step tolerance and ``fatol`` its relative-reduction and
    gradient tolerance.  The path is deterministic, so identical inputs
    give bit-identical results.
    """

    def __init__(self, rate_zero=False, max_iter=1000, xatol=1e-10, fatol=1e-12):
        self.rate_zero = rate_zero
        self.max_iter = max_iter
        self.xatol = xatol
        self.fatol = fatol

    def _refine(self, support, observed, log_support, rate_zero):
        result = least_squares(
            lambda theta: _gamma_profile(theta, support, observed, log_support)[0],
            _gamma_start(support, observed, log_support, rate_zero),
            method="lm",
            # a fixed trust region: scaling by the Jacobian lets one step
            # at a tiny rate move the log-rate by hundreds
            x_scale=1.0,
            xtol=self.xatol,
            ftol=self.fatol,
            gtol=self.fatol,
            max_nfev=self.max_iter,
        )
        if result.status == 0:
            raise FitFailureError(
                f"Gamma optimizer did not converge in {self.max_iter} evaluations",
                best_params=tuple(result.x),
            )
        return result

    def fit(self, X, y=None):
        support, observed = support_frequencies(X)
        if np.any(support <= 0):
            raise ValueError("Gamma support must be positive")
        if int(np.sum(observed > 0)) < 3:
            raise UnderdeterminedFitError(
                "Gamma fit needs at least 3 positive-frequency support points"
            )
        log_support = np.log(support)
        best = self._refine(support, observed, log_support, rate_zero=True)
        rate, evaluations = 0.0, best.nfev
        if not self.rate_zero:
            full = self._refine(support, observed, log_support, rate_zero=False)
            evaluations += full.nfev
            full_rate = math.exp(min(full.x[0], _LOG_RATE_MAX))
            # below the floor the full fit is the nested one up to round-off
            if full_rate >= _RATE_FLOOR and full.cost < best.cost:
                best, rate = full, full_rate
        _, scaled_amplitude, shift = _gamma_profile(
            best.x, support, observed, log_support
        )
        shape = float(best.x[-1])
        with np.errstate(over="ignore"):
            amplitude = float(scaled_amplitude * np.exp(-shift))
            if not (math.isfinite(amplitude) and amplitude > 0):
                raise FitFailureError(
                    "Gamma fit produced a non-finite or non-positive amplitude",
                    best_params=(scaled_amplitude, rate, shape),
                )
            model = GammaModel(amplitude=amplitude, rate=rate, shape=shape)
            curve = model.weights(support)
        if not np.all(np.isfinite(curve)):
            raise FitFailureError(
                "Gamma fit produced a non-finite curve",
                best_params=(model.amplitude, model.rate, model.shape),
            )
        self.amplitude_ = model.amplitude
        self.rate_ = model.rate
        self.shape_ = model.shape
        self.model_ = model
        self.support_ = support
        self.observed_ = observed
        self.curve_ = curve
        self.n_iter_ = int(evaluations)
        return self

    def predict(self, support):
        check_is_fitted(self, "model_")
        return self.model_.weights(support)

    def result(self) -> FitResult:
        check_is_fitted(self, "model_")
        return _build_result(
            self.model_, self.support_, self.observed_, self.curve_, self.n_iter_
        )


def fit_benford(hist: DigitHistogram) -> FitResult:
    return BenfordFitter().fit(hist).result()


def fit_zipf(table) -> FitResult:
    return ZipfFitter().fit(table).result()


def fit_gamma(hist) -> FitResult:
    return GammaFitter().fit(hist).result()


def fit_gamma_rate_zero(hist) -> FitResult:
    """Two-parameter pure power-law variant of the Gamma fit (rate = 0)."""
    return GammaFitter(rate_zero=True).fit(hist).result()


def fit_zipf_on_lengths(hist: LengthHistogram) -> FitResult:
    """Zipf fit with decimal length standing in for rank."""
    return ZipfFitter().fit(hist).result()


_POOLED_DIMENSIONS = {"first_digit", "frequency", "length"}


def pooled_fit(corpora, dimension: str) -> FitResult:
    """Fit the dimension's law to the union of several corpora.

    Duplicating a corpus leaves relative frequencies unchanged, so the
    pooled fit of k identical corpora equals the single-corpus fit.
    """
    if dimension not in _POOLED_DIMENSIONS:
        raise ValueError(f"unknown dimension {dimension!r}")
    merged = merge_corpora(corpora)
    if dimension == "first_digit":
        return fit_gamma(DigitHistogram.from_corpus(merged))
    if dimension == "frequency":
        return fit_zipf(RankFrequencyTable.from_corpus(merged))
    return fit_gamma(LengthHistogram.from_corpus(merged))
