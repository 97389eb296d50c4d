"""Upper-cutoff estimation for scaling systems by fixed-point iteration.

Finite samples of scaling systems under-sample their own tails; the
implied empirical deviation lets one iterate toward the largest object
size the system could support.  Two update systems are provided:

Gamma system (alpha is the fitted shape, rate the fitted decay):

    deviation = n * (lower/upper)**(1/alpha) * exp(rate*(lower - upper))
    upper     = lower * (1 + deviation/n)**(1/alpha)

Zipf system (alpha is the fitted rank exponent, as printed with the outer
exponent alpha rather than 1/alpha):

    upper = lower * (n / (n*(upper/lower)**alpha - 1))**alpha

Iteration starts from the largest observed object; the deviation is
recomputed from the current iterate each round (true fixed-point
coupling).  The raw Zipf map can oscillate, so the default iteration
averages each step with the previous iterate; the undamped map stays
available behind a flag.  Convergence means the relative fixed-point
residual |map(upper) - upper| / upper fell below the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CutoffDomainError, CutoffNumericError

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 10_000

# published headline boundary shares for large financial-statement
# corpora, carried in reports as comparison context only
REFERENCE_BOUNDARY_SHARES = {
    "first_digit": 0.4615,
    "frequency": 0.0406,
    "length": 0.00015,
}


def _not_positive(x) -> bool:
    return not (math.isfinite(x) and x > 0)


@dataclass(frozen=True)
class CutoffEstimate:
    """Result of one cutoff iteration run."""

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
            "trace_head": list(self.trace[:4]),
            "trace_tail": list(self.trace[-2:]),
        }


def gamma_deviation(n, lower, upper, alpha, rate) -> float:
    """Empirical deviation of a Gamma system at the current upper cutoff."""
    return n * (lower / upper) ** (1.0 / alpha) * math.exp(rate * (lower - upper))


def gamma_update(lower, deviation, n, alpha) -> float:
    """Next upper cutoff from the current deviation; increasing in deviation."""
    return lower * (1.0 + deviation / n) ** (1.0 / alpha)


def estimate_cutoff_gamma(
    n: int,
    lower: float,
    alpha: float,
    rate: float,
    upper_init: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CutoffEstimate:
    """Iterate the Gamma-system deviation/update pair from the observed maximum."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if _not_positive(lower) or lower > upper_init:
        raise ValueError("need 0 < lower <= upper_init")
    if _not_positive(alpha):
        raise ValueError("alpha must be positive")
    if rate < 0:
        raise ValueError("rate must be non-negative")

    upper = float(upper_init)
    trace = [upper]
    deviation = gamma_deviation(n, lower, upper, alpha, rate)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        try:
            deviation = gamma_deviation(n, lower, upper, alpha, rate)
            upper_next = gamma_update(lower, deviation, n, alpha)
        except OverflowError as exc:
            raise CutoffNumericError(
                f"Gamma cutoff iteration overflowed: {exc}", trace=trace
            ) from exc
        if not math.isfinite(upper_next) or not math.isfinite(deviation):
            raise CutoffNumericError(
                "Gamma cutoff iteration produced a non-finite value", trace=trace
            )
        trace.append(upper_next)
        if abs(upper_next - upper) / abs(upper_next) < tol:
            upper = upper_next
            converged = True
            break
        upper = upper_next
    return CutoffEstimate(
        lower_cutoff=float(lower),
        upper_cutoff=upper,
        deviation=deviation,
        trace=tuple(trace),
        converged=converged,
        iterations=iterations,
    )


def zipf_update(n, lower, alpha, upper) -> float:
    """One application of the Zipf-system map; raises off its domain."""
    bracket = n * (upper / lower) ** alpha - 1.0
    if bracket <= 0.0:
        raise CutoffDomainError(
            f"Zipf cutoff bracket violated: n*(upper/lower)**alpha = {bracket + 1.0!r} <= 1"
        )
    return lower * (n / bracket) ** alpha


def estimate_cutoff_zipf(
    n: int,
    lower: float,
    alpha: float,
    upper_init: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    damped: bool = True,
) -> CutoffEstimate:
    """Iterate the Zipf-system map, damped by default to suppress oscillation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if _not_positive(lower) or lower > upper_init:
        raise ValueError("need 0 < lower <= upper_init")
    if _not_positive(alpha):
        raise ValueError("alpha must be positive")

    upper = float(upper_init)
    trace = [upper]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        mapped = zipf_update(n, lower, alpha, upper)
        if not math.isfinite(mapped):
            raise CutoffNumericError(
                "Zipf cutoff iteration produced a non-finite value", trace=trace
            )
        residual_ok = abs(mapped - upper) / abs(upper) < tol
        upper_next = 0.5 * (upper + mapped) if damped else mapped
        trace.append(upper_next)
        upper = upper_next
        if residual_ok:
            converged = True
            break
    # final deviation in the rate-free Gamma form, for reporting symmetry
    deviation = gamma_deviation(n, lower, upper, alpha, 0.0)
    return CutoffEstimate(
        lower_cutoff=float(lower),
        upper_cutoff=upper,
        deviation=deviation,
        trace=tuple(trace),
        converged=converged,
        iterations=iterations,
    )


@dataclass(frozen=True)
class BoundaryEntry:
    dimension: str
    observed_share: float
    estimated_share: float
    within_boundary: bool
    converged: bool

    def to_dict(self):
        return {
            "dimension": self.dimension,
            "observed_share": self.observed_share,
            "estimated_share": self.estimated_share,
            "within_boundary": self.within_boundary,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class BoundarySummary:
    entries: tuple[BoundaryEntry, ...]

    def to_dict(self):
        return {
            "entries": [e.to_dict() for e in self.entries],
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
