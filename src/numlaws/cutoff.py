"""Upper-cutoff estimation for scaling systems as the root of a monotone equation.

Finite samples of scaling systems under-sample their own tails; the
implied empirical deviation bounds the largest object size the system
could support.  Two maps give the next upper cutoff from the current one:

Gamma system (alpha is the fitted shape, rate the fitted decay):

    deviation = n * (lower/upper)**(1/alpha) * exp(rate*(lower - upper))
    map(upper) = lower * (1 + deviation/n)**(1/alpha)

Zipf system (alpha is the fitted rank exponent, as printed with the outer
exponent alpha rather than 1/alpha):

    map(upper) = lower * (n / (n*(upper/lower)**alpha - 1))**alpha

The cutoff is the fixed point ``map(u) = u``.  Both maps decrease in
``u``, so ``map(u) - u`` has exactly one root.  Brent's method (Brent
1973, as SciPy's ``brentq``; ported in ``_solvers``) finds it on the
residual in ``y = log(u/lower)``.  It converges when half its bracket is
below ``(xtol + 4*eps*|y|)/2``, with ``xtol = _XTOL/max(alpha, 1)``, and
reports ``converged`` false if it has not after 100 steps.  It searches
a closed-form bracket: ``(0, log 2/alpha)`` for Gamma, ``(-log n/alpha,
log 2/alpha]`` for Zipf, whose lower end is the edge of the map's
domain.  The first evaluation, at the largest observed object, picks
the side that holds the root.  A root beyond the floats, or an
evaluation that overflows, raises CutoffNumericError, which the
pipeline notes in the section as ``cutoff failed: ...``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from ._solvers import brent
from .errors import CutoffNumericError

# published headline boundary shares for large financial-statement
# corpora, carried in reports as comparison context only
REFERENCE_BOUNDARY_SHARES = {
    "first_digit": 0.4615,
    "frequency": 0.0406,
    "length": 0.00015,
}

# the bracket ends where lower * exp(y) reaches half the largest float
_LOG_HALF_FLOAT_MAX = math.log(sys.float_info.max / 2)
# Brent's tolerance on y, divided by alpha above 1 as the bracket narrows
_XTOL = 2e-12


def _not_positive(x) -> bool:
    return not (math.isfinite(x) and x > 0)


@dataclass(frozen=True)
class CutoffEstimate:
    """Result of one cutoff solve.

    ``trace`` holds every evaluated upper cutoff in order from the observed
    maximum, then the root again if it was not the last; ``iterations``
    counts the evaluations.
    """

    lower_cutoff: float
    upper_cutoff: float
    deviation: float
    trace: tuple[float, ...]
    converged: bool
    iterations: int

    def to_dict(self):
        return {
            "lower_cutoff": self.lower_cutoff,
            "upper_cutoff": self.upper_cutoff,
            "deviation": self.deviation,
            "converged": self.converged,
            "iterations": self.iterations,
            "trace_head": self.trace[:4],
            "trace_tail": self.trace[-2:],
        }


def gamma_deviation(n, lower, upper, alpha, rate) -> float:
    """Empirical deviation of a Gamma system at the upper cutoff."""
    return n * (lower / upper) ** (1.0 / alpha) * math.exp(rate * (lower - upper))


def _solve(law, log_map, y_floor, n, lower, alpha, rate, upper_init):
    """The one root of ``log_map(y, u) - y``, where ``y = log(u/lower)`` and
    ``log_map(y, u) = log(map(u)/lower)`` decreases in ``y``; the residual
    is positive at ``y_floor`` and negative at ``log 2/alpha``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if _not_positive(lower) or _not_positive(upper_init) or lower > upper_init:
        raise ValueError("need 0 < lower <= upper_init")
    if _not_positive(alpha):
        raise ValueError("alpha must be positive")

    y0 = math.log(upper_init) - math.log(lower)
    y_top = min(math.log(2.0) / alpha, _LOG_HALF_FLOAT_MAX - max(math.log(lower), 0.0))
    cutoffs = {}  # evaluated y -> u, in evaluation order

    def residual(y):
        if y not in cutoffs:
            cutoffs[y] = float(upper_init) if y == y0 else lower * math.exp(y)
        return log_map(y, cutoffs[y]) - y

    try:
        a, b = (y0, y_top) if residual(y0) > 0.0 else (y_floor, min(y0, y_top))
        if residual(b) > 0.0:
            raise CutoffNumericError(
                f"{law} cutoff has no root within the float range", trace=cutoffs.values()
            )
        root, converged = brent(residual, a, b, xtol=_XTOL / max(alpha, 1.0))
        upper = cutoffs[root]
        deviation = gamma_deviation(n, lower, upper, alpha, rate)
    except OverflowError as exc:
        raise CutoffNumericError(
            f"{law} cutoff solve overflowed: {exc}", trace=cutoffs.values()
        ) from exc
    trace = list(cutoffs.values())
    if trace[-1] != upper:
        trace.append(upper)
    return CutoffEstimate(
        lower_cutoff=float(lower),
        upper_cutoff=upper,
        deviation=deviation,
        trace=tuple(trace),
        converged=converged,
        iterations=len(cutoffs),
    )


def estimate_cutoff_gamma(
    n: int,
    lower: float,
    alpha: float,
    rate: float,
    upper_init: float,
) -> CutoffEstimate:
    """Fixed point of the Gamma-system map, with the deviation at the root."""
    if rate < 0:
        raise ValueError("rate must be non-negative")

    def log_map(y, upper):
        # log((1 + deviation/n)**(1/alpha)), the deviation taken in logs
        return math.log1p(math.exp(-y / alpha - rate * (upper - lower))) / alpha

    return _solve("Gamma", log_map, 0.0, n, lower, alpha, rate, upper_init)


def estimate_cutoff_zipf(
    n: int,
    lower: float,
    alpha: float,
    upper_init: float,
) -> CutoffEstimate:
    """Fixed point of the Zipf-system map, reporting for symmetry the
    rate-free Gamma deviation at the root."""

    def log_map(y, upper):
        # alpha * (log n - log(n*exp(s) - 1)) with s = alpha*y; the second
        # log, as s + log((n-1) - expm1(-s)), keeps its precision near s = 0
        # and cannot overflow; +inf at and beyond the domain's edge
        s = alpha * y
        bracket = (n - 1) - math.expm1(-s)
        if bracket <= 0.0:
            return math.inf
        return alpha * (math.log(n) - s - math.log(bracket))

    return _solve("Zipf", log_map, -math.log(n) / alpha, n, lower, alpha, 0.0, upper_init)


@dataclass(frozen=True)
class BoundaryEntry:
    dimension: str
    observed_share: float
    estimated_share: float
    within_boundary: bool
    converged: bool


@dataclass(frozen=True)
class BoundarySummary:
    entries: tuple[BoundaryEntry, ...]

    def to_dict(self):
        return {
            "entries": self.entries,
            "reference_shares": dict(REFERENCE_BOUNDARY_SHARES),
        }


def cutoff_report(estimates: dict, observed_shares: dict) -> BoundarySummary:
    """Compare cutoff estimates (on the share scale) with observed shares.

    Both arguments map dimension name to its estimate and to the observed
    share its boundary bounds.
    """
    if not estimates:
        raise ValueError("need at least one cutoff estimate")
    entries = []
    for dimension in sorted(estimates):
        estimate = estimates[dimension]
        observed = float(observed_shares[dimension])
        entries.append(
            BoundaryEntry(
                dimension=dimension,
                observed_share=observed,
                estimated_share=estimate.upper_cutoff,
                within_boundary=observed <= estimate.upper_cutoff,
                converged=estimate.converged,
            )
        )
    return BoundarySummary(entries=tuple(entries))
