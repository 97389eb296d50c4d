"""Goodness-of-fit metrics between observed and fitted distributions.

Four scores with fixed acceptance thresholds:

- R^2 = 1 - SS_res/SS_tot, primary gauge; > 0.9 strong, > 0.8 acceptable.
- KL divergence, natural log, >= 0; < 0.5 acceptable.
- JS divergence, base-2 log so the range is [0, 1]; < 0.2 acceptable.
- MAPE as a fraction (not percent); < 0.5 acceptable.

All four operate on relative frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError
from .validation import as_float_array, check_equal_length, check_pmf

R2_STRONG = 0.9
R2_ACCEPTABLE = 0.8
KL_ACCEPTABLE = 0.5
JS_ACCEPTABLE = 0.2
MAPE_ACCEPTABLE = 0.5

# residual level below which a fit counts as exact even on constant data
_EXACT_RESIDUAL = 1e-12

KL_SMOOTH_EPSILON = 1e-10


def r_squared(observed, fitted) -> float:
    """Coefficient of determination; may be negative for terrible fits.

    Constant observed data has zero variance: the fit is reported as
    perfect (1.0) when its residual sum is below 1e-12, otherwise the
    ratio is undefined and DegenerateDataError is raised.
    """
    p = as_float_array(observed, "observed")
    q = as_float_array(fitted, "fitted")
    check_equal_length(p, q)
    ss_res = float(np.sum((p - q) ** 2))
    ss_tot = float(np.sum((p - p.mean()) ** 2))
    if ss_tot == 0.0:
        if ss_res <= _EXACT_RESIDUAL:
            return 1.0
        raise DegenerateDataError("observed sequence is constant; R^2 undefined")
    return 1.0 - ss_res / ss_tot


def kl_divergence(p, q) -> float:
    """KL(p || q) in natural log with the 0*log(0/q) = 0 convention.

    Zero fitted mass under positive observed mass would be an infinite
    divergence; the fitted pmf is then smoothed additively by
    ``KL_SMOOTH_EPSILON`` (1e-10) and renormalized, so degenerate fits
    cannot produce infinities.  Smoothing never triggers otherwise, so
    KL(p, p) is exactly zero for every pmf.
    """
    p = check_pmf(p, "observed pmf")
    q = check_pmf(q, "fitted pmf")
    check_equal_length(p, q)
    if np.any((q == 0.0) & (p > 0.0)):
        q = q + KL_SMOOTH_EPSILON
        q = q / q.sum()
    mask = p > 0.0
    p, q = p[mask], q[mask]
    with np.errstate(over="ignore"):
        log_ratio = np.log(p / q)
    # a subnormal fitted mass overflows the ratio; its log stays finite
    overflow = np.isinf(log_ratio)
    log_ratio[overflow] = np.log(p[overflow]) - np.log(q[overflow])
    return float(np.sum(p * log_ratio))


def js_divergence(p, q) -> float:
    """Symmetric Jensen-Shannon divergence in base-2 logs, range [0, 1]."""
    p = check_pmf(p, "p")
    q = check_pmf(q, "q")
    check_equal_length(p, q)
    m = p + q
    left = p > 0.0
    right = q > 0.0
    term_p = float(np.sum(p[left] * np.log2(2.0 * p[left] / m[left])))
    term_q = float(np.sum(q[right] * np.log2(2.0 * q[right] / m[right])))
    return 0.5 * term_p + 0.5 * term_q


def mape(observed, fitted) -> float:
    """Mean absolute percentage error as a fraction.

    Terms with zero observed value are excluded from the average: a
    percentage error against zero is undefined and any smoothing floor
    would dominate the mean arbitrarily.  A subnormal observed value can
    make a quotient overflow, and the result is then ``inf`` (a report
    writes it as null).
    """
    p = as_float_array(observed, "observed")
    q = as_float_array(fitted, "fitted")
    check_equal_length(p, q)
    mask = p != 0.0
    if not np.any(mask):
        raise DegenerateDataError("all observed values are zero; MAPE undefined")
    with np.errstate(over="ignore"):
        return float(np.mean(np.abs(q[mask] - p[mask]) / np.abs(p[mask])))


@dataclass(frozen=True)
class MetricScores:
    r_squared: float
    kl: float
    js: float
    mape: float

    def to_dict(self):
        return {
            "r_squared": self.r_squared,
            "kl": self.kl,
            "js": self.js,
            "mape": self.mape,
        }


@dataclass(frozen=True)
class FitVerdict:
    """Per-metric conformity level against the fixed thresholds."""

    r_squared: str
    kl: str
    js: str
    mape: str

    def to_dict(self):
        return {
            "r_squared": self.r_squared,
            "kl": self.kl,
            "js": self.js,
            "mape": self.mape,
        }


def classify_fit(scores: MetricScores) -> FitVerdict:
    """Grade each score: R^2 three-way, the divergences pass/fail."""
    r2 = scores.r_squared
    if r2 > R2_STRONG:
        r2_level = "strong"
    elif r2 > R2_ACCEPTABLE:
        r2_level = "acceptable"
    else:
        r2_level = "fail"
    return FitVerdict(
        r_squared=r2_level,
        kl="acceptable" if scores.kl < KL_ACCEPTABLE else "fail",
        js="acceptable" if scores.js < JS_ACCEPTABLE else "fail",
        mape="acceptable" if scores.mape < MAPE_ACCEPTABLE else "fail",
    )


def score_fit(observed, fitted) -> MetricScores:
    """Score a fitted curve against observed frequencies.

    R^2 and MAPE compare the raw sequences; the divergences compare both
    sides renormalized to pmfs, since fitted law values absorb
    normalization into their amplitude.

    A constant observed sequence with a non-exact fit has no finite R^2;
    it scores -inf here (grading to "fail") rather than raising, so that
    scoring a fit never aborts an analysis.
    """
    p = as_float_array(observed, "observed")
    q = as_float_array(fitted, "fitted")
    check_equal_length(p, q)
    try:
        r2 = r_squared(p, q)
    except DegenerateDataError:
        r2 = float("-inf")
    p_pmf = p / p.sum()
    q_pmf = q / q.sum()
    return MetricScores(
        r_squared=r2,
        kl=kl_divergence(p_pmf, q_pmf),
        js=js_divergence(p_pmf, q_pmf),
        mape=mape(p, q),
    )
