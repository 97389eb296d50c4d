"""Least-squares estimation of the three laws from observed views.

Each law is fitted by a function from a view (any object with
``support`` and ``frequencies``, such as a digit or length histogram or a
rank-frequency table) to a ``FitResult``.  No public fit calls another,
so a wrapper around one of them sees exactly one call per fit.  Each
returns through ``_build_result``, which refuses the fit with
``FitFailureError`` when the law's model rejects the fitted parameters
or the curve's squared error is not finite.

- ``fit_benford`` has no free parameters; fitting only scores the data.
- ``fit_zipf`` runs ordinary least squares on (log rank, log frequency);
  the slope is the negated exponent, the intercept the log scale.
  Zero-frequency support points are excluded from the regression but
  retained for scoring.  ``fit_zipf_on_lengths`` is another name for
  the same function, fitted with decimal length standing in for rank.
- ``fit_gamma`` minimizes squared error in linear frequency space by
  variable projection: the amplitude is profiled out exactly by a linear
  solve, and one Levenberg-Marquardt run refines (log rate, shape) from
  a closed-form least-squares start in log space.  Each evaluation is
  one call of ``_gamma_projection``, which builds the curve once and
  returns the profiled residual with its exact Golub-Pereyra Jacobian.
  The run keeps the rules of MINPACK's ``lmder`` (Moré 1978; see
  ``_solvers``) with unit column scaling: scaling by the Jacobian's
  column norms would let one step at a tiny rate move the log-rate by
  hundreds.  It converges when the actual and the predicted relative
  reduction of the SSE are both at most ``_FTOL``, when its step bound
  falls to ``_XTOL`` times the norm of the parameters, or when the
  residual's cosine with every Jacobian column is at most ``_FTOL``; a
  run still going after ``_MAX_EVALUATIONS`` residual evaluations fails
  the fit.  The log-rate is clamped to [-700, 700].
  ``fit_gamma_rate_zero`` pins the rate to zero for the pure power-law
  comparison variant; the full fit runs that nested fit too and keeps
  whichever fits better.
- A histogram whose squared error falls toward its infimum only as the
  parameters grow without bound has no least-squares Gamma fit.  That
  infimum has a closed form, and a run whose best point approaches it
  with the curve piled onto the bins it keeps stops there; the fit is
  then refused with ``FitFailureError`` rather than reported at an
  arbitrary point along the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._solvers import levenberg_marquardt
from .corpus import DigitHistogram, LengthHistogram, RankFrequencyTable, merge_corpora
from .errors import FitFailureError, UnderdeterminedFitError
from .laws import BenfordModel, GammaModel, ZipfModel
from .metrics import FitVerdict, MetricScores, classify_fit, score_fit
from .validation import support_frequencies

# numlaws' own views: frozen, so they may keep the nested rate-zero run
_FROZEN_VIEWS = (DigitHistogram, LengthHistogram, RankFrequencyTable)
# a fitted rate below the optimizer's resolution floor is the nested
# rate-zero model, and that fit is reported instead
_RATE_FLOOR = 1e-12
# exp(700) is near the float64 limit; at that rate every support point but
# the first has weight 0, so a larger log-rate changes no residual
_LOG_RATE_MAX = 700.0
# the same bound below: exp(-700) is far under the floor, so a fit held
# there reports the nested fit; without it the log-rate column of the
# Jacobian sinks into subnormals as the rate goes to 0, and a run on
# lengths (0.55, 0.23, 0.22) wanders until its evaluation bound
_LOG_RATE_MIN = -700.0
# rate start when the closed-form slope shows no decay
_RATE_START = 1e-3
# a point whose SSE is within this relative distance of the SSE's limit at
# infinite parameters, and whose curve has all but this share of its
# squared mass on the bins that limit keeps, is on its way to infinity
_BOUNDARY_TOL = 1e-3
# each Levenberg-Marquardt run: its bound on function evaluations, its step
# tolerance, and its relative-reduction and gradient tolerance
_MAX_EVALUATIONS = 1000
_XTOL = 1e-10
_FTOL = 1e-12


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
            "params": self.model,
            "support": self.support,
            "observed": self.observed,
            "fitted": self.curve,
            "scores": self.scores,
            "verdict": self.verdict,
            "residual_sum": self.residual_sum,
            "iterations": self.iterations,
        }


def _build_result(law, support, observed, iterations, **params) -> FitResult:
    """The fit of ``law(**params)`` to the observed frequencies, or its refusal."""
    name, best = law.__name__.removesuffix("Model"), tuple(params.values())
    try:
        model = law(**params)
    except ValueError as exc:
        raise FitFailureError(f"{name} fit produced invalid parameters: {exc}", best) from None
    # an overflowing curve is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        curve = model.weights(support)
        residual = float(np.sum((observed - curve) ** 2))
    if not math.isfinite(residual):
        raise FitFailureError(f"{name} fit produced a non-finite curve or squared error", best)
    scores = score_fit(observed, curve)
    return FitResult(
        model=model,
        support=tuple(support.tolist()),
        observed=tuple(observed.tolist()),
        curve=tuple(curve.tolist()),
        scores=scores,
        verdict=classify_fit(scores),
        residual_sum=residual,
        iterations=int(iterations),
    )


def _clamped_rate(log_rate):
    return math.exp(min(max(log_rate, _LOG_RATE_MIN), _LOG_RATE_MAX))


def _gamma_projection(theta, support, observed, log_support):
    """The residual of the best amplitude for one (rate, shape), and its Jacobian.

    ``theta`` is ``(shape,)`` for the rate-zero fit and ``(log rate,
    shape)`` otherwise.  The curve shape ``g`` is built once, scaled by
    ``exp(-shift)`` so that exp() stays in range for extreme shapes, and
    the amplitude is solved exactly.  Returns (residual, jacobian,
    scaled_amplitude, shift); the true amplitude is scaled_amplitude *
    exp(-shift).

    The Jacobian is the Golub-Pereyra variable-projection derivative.
    With ``r = f - a*g`` and ``a = f.g / g.g``, ``dr = -(a*dg + g (x) da)``
    where ``da = (f.dg - 2a*g.dg) / g.g``; ``dg = g * dlog g``, with
    ``dlog g/dlog rate = -rate*x`` (0 where the log-rate is clamped) and
    ``dlog g/dshape = log x``.  A multiple of ``g`` added to ``dg`` leaves
    ``dr`` unchanged, so both columns are taken relative to the curve's
    largest point: they stay small where ``g`` is not negligible, and
    the shift needs no term of its own.  Every entry is finite wherever
    the residual is.
    """
    rate = _clamped_rate(theta[0]) if len(theta) == 2 else 0.0
    log_g = -rate * support + (theta[-1] - 1.0) * log_support
    centre = int(log_g.argmax())
    shift = log_g[centre]
    g = np.exp(log_g - shift)
    denom = float(g @ g)
    if denom == 0.0 or not math.isfinite(denom):
        # amplitude 0: the worst profiled fit, but a finite residual, and dr = 0
        return observed, np.zeros((len(support), len(theta))), 0.0, 0.0
    amplitude = float(observed @ g) / denom
    columns = [log_support - log_support[centre]]
    if len(theta) == 2:
        if _LOG_RATE_MIN < theta[0] < _LOG_RATE_MAX:
            columns.insert(0, rate * (support[centre] - support))
        else:
            columns.insert(0, np.zeros_like(support))
    with np.errstate(over="ignore", invalid="ignore"):
        dg = g[:, None] * np.column_stack(columns)
    # where g underflowed to 0 its derivative is 0, not 0 * inf
    dg[g == 0.0] = 0.0
    da = (observed @ dg - 2.0 * amplitude * (g @ dg)) / denom
    return observed - amplitude * g, -(amplitude * dg + np.outer(g, da)), amplitude, shift


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


def _boundary_limit(support, observed, rate_zero):
    """The SSE's infimum at infinite parameters, with the bins it keeps.

    As rate and shape grow, ``log g`` is concave in x, so the curve can
    hold any two adjacent support points in any ratio while the rest
    vanish: the limit is ``|f|^2 - max_k (f_k^2 + f_{k+1}^2)``.  With the
    rate pinned to 0 the power law can only hold its lowest or highest
    point: ``|f|^2 - max(f_1^2, f_n^2)``.  Each limit is summed over the
    bins outside its set, so a limit far below ``|f|^2`` keeps its
    digits.  Returns the limit and, one row per bin set that attains it,
    the indices of that set.
    """
    order = np.argsort(support, kind="stable")
    squares = observed[order] ** 2
    # before[i] sums the squares below sorted position i, after[i] from it
    before = np.concatenate(([0.0], np.cumsum(squares)))
    after = np.concatenate((np.cumsum(squares[::-1])[::-1], [0.0]))
    if rate_zero:
        bin_sets = order[[0, -1]][:, None]
        outside = np.array([after[1], before[-2]])
    else:
        bin_sets = np.column_stack([order[:-1], order[1:]])
        outside = before[:-2] + after[2:]
    limit = outside.min()
    return float(limit), bin_sets[outside == limit]


class _Unbounded(Exception):
    """Raised from inside a run at a point on its way to infinity."""


def _gamma_refine(support, observed, log_support, rate_zero):
    """One Levenberg-Marquardt run from the closed-form start.

    Returns (sse, theta, evaluations, unbounded, amplitude), where the
    amplitude is the best one at ``theta``, kept from its projection.  A
    run whose lowest SSE so far lies within ``_BOUNDARY_TOL`` above the
    SSE's limit at infinite parameters (``_boundary_limit``), at a point
    whose curve has all but that share of its squared mass on the limit's
    bins, is heading for infinity: it stops there, ``unbounded`` is true
    and its sse is the limit.  Only improving points are checked, so a
    trial step that the run would reject never stops it.
    """
    limit, bin_sets = _boundary_limit(support, observed, rate_zero)
    evaluations, lowest = 0, math.inf
    # (scaled amplitude, shift) of every point evaluated, by its bytes
    amplitudes = {}

    def residual(theta):
        nonlocal evaluations, lowest
        evaluations += 1
        r, jacobian, scaled_amplitude, shift = _gamma_projection(
            theta, support, observed, log_support
        )
        amplitudes[theta.tobytes()] = scaled_amplitude, shift
        sse = float(r @ r)
        if sse < lowest:
            lowest = sse
            if limit <= sse <= (1 + _BOUNDARY_TOL) * limit:
                mass = (observed - r) ** 2
                if mass[bin_sets].sum(axis=1).max() >= (1 - _BOUNDARY_TOL) * mass.sum():
                    raise _Unbounded(np.array(theta))
        return r, jacobian

    try:
        theta, r, converged = levenberg_marquardt(
            residual,
            _gamma_start(support, observed, log_support, rate_zero),
            xtol=_XTOL,
            ftol=_FTOL,
            gtol=_FTOL,
            max_evaluations=_MAX_EVALUATIONS,
        )
    except _Unbounded as stop:
        theta, sse, unbounded = stop.args[0], limit, True
    else:
        if not converged:
            raise FitFailureError(
                f"Gamma optimizer did not converge in {_MAX_EVALUATIONS} evaluations",
                best_params=tuple(float(t) for t in theta),
            )
        sse, unbounded = float(r @ r), False
    scaled_amplitude, shift = amplitudes[theta.tobytes()]
    with np.errstate(over="ignore", invalid="ignore"):
        amplitude = float(scaled_amplitude * np.exp(-shift))
    return sse, theta, evaluations, unbounded, amplitude


def _fit_gamma(view, rate_zero) -> FitResult:
    """Discrete Gamma fit, with the rate pinned to 0 when ``rate_zero``.

    Each Levenberg-Marquardt run takes the exact variable-projection
    Jacobian (``_gamma_projection``) and stops after ``_MAX_EVALUATIONS``
    (1000) function evaluations, or on its step tolerance ``_XTOL``
    (1e-10) or its relative-reduction and gradient tolerance ``_FTOL``
    (1e-12).  The log-rate is held within [-700, 700], with a zero
    derivative where it is clamped.  The full fit keeps the nested
    rate-zero fit on a tie or when its own rate is below 1e-12.

    A run stopped on its way to infinite parameters (see
    ``_gamma_refine``) stands for the limit SSE it approaches.  When the
    better run is such a run, the SSE has no minimum at finite parameters
    and the fit is refused with ``FitFailureError``.  So when only the
    nested run is stopped, the full fit keeps its own run's result if
    that beats the nested limit.  The path is deterministic, so identical
    inputs give bit-identical results.
    """
    support, observed = support_frequencies(view)
    if np.any(support <= 0):
        raise ValueError("Gamma support must be positive")
    if int(np.sum(observed > 0)) < 3:
        raise UnderdeterminedFitError(
            "Gamma fit needs at least 3 positive-frequency support points"
        )
    log_support = np.log(support)
    # The full fit's nested run and the rate-zero candidate fit the same
    # view: a frozen view keeps the run in its __dict__.  Any other view may
    # change between fits or have no __dict__, and is left untouched.
    kept = view.__dict__ if isinstance(view, _FROZEN_VIEWS) else {}
    run = kept.get("_gamma_rate_zero_run")
    if run is None:
        run = _gamma_refine(support, observed, log_support, rate_zero=True)
        kept["_gamma_rate_zero_run"] = run
    sse, theta, evaluations, unbounded, amplitude = run
    rate = 0.0
    if not rate_zero:
        full_sse, full_theta, full_evaluations, full_unbounded, full_amplitude = (
            _gamma_refine(support, observed, log_support, rate_zero=False)
        )
        evaluations += full_evaluations
        full_rate = _clamped_rate(full_theta[0])
        # below the floor a finite full fit is the nested one up to round-off
        if (full_unbounded or full_rate >= _RATE_FLOOR) and full_sse < sse:
            sse, theta, unbounded, rate = full_sse, full_theta, full_unbounded, full_rate
            amplitude = full_amplitude
    if unbounded:
        raise FitFailureError(
            f"Gamma SSE has no minimum at finite parameters: it approaches "
            f"{sse!r} only as the parameters run off to infinity",
            best_params=tuple(float(t) for t in theta),
        )
    return _build_result(
        GammaModel, support, observed, evaluations,
        amplitude=amplitude, rate=rate, shape=float(theta[-1]),
    )


def fit_benford(hist) -> FitResult:
    """Score observed first-digit frequencies against the fixed Benford pmf."""
    support, observed = support_frequencies(hist)
    return _build_result(BenfordModel, support, observed, 0)


def fit_zipf(view) -> FitResult:
    """Power-law fit by OLS in log-log space, scored in linear space."""
    support, observed = support_frequencies(view)
    if np.any(support < 1):
        raise ValueError("Zipf support (ranks) must be >= 1")
    mask = observed > 0
    if int(mask.sum()) < 2:
        raise UnderdeterminedFitError("Zipf fit needs at least 2 positive-frequency ranks")
    log_r = np.log(support[mask])
    log_f = np.log(observed[mask])
    centered = log_r - log_r.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        raise UnderdeterminedFitError("all ranks identical; slope undefined")
    slope = float(centered @ (log_f - log_f.mean())) / denom
    intercept = float(log_f.mean() - slope * log_r.mean())
    try:
        scale = math.exp(intercept)
    except OverflowError:
        scale = math.inf
    return _build_result(ZipfModel, support, observed, 0, exponent=-slope, scale=scale)


fit_zipf_on_lengths = fit_zipf


def fit_gamma(hist) -> FitResult:
    return _fit_gamma(hist, rate_zero=False)


def fit_gamma_rate_zero(hist) -> FitResult:
    """Two-parameter pure power-law variant of the Gamma fit (rate = 0)."""
    return _fit_gamma(hist, rate_zero=True)


def pooled_fit(corpora, view, fit) -> FitResult:
    """``fit`` on the ``view`` class of the union of several corpora.

    Duplicating a corpus leaves relative frequencies unchanged, so the
    pooled fit of k identical corpora equals the single-corpus fit.
    """
    return fit(view.from_corpus(merge_corpora(corpora)))
