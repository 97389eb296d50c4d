"""The three candidate laws as point-evaluable models on discrete supports.

Models are exposed unnormalized, exactly as they are fitted against raw
relative frequencies (the amplitude parameters absorb normalization), plus
an explicit ``discrete_normalize`` step that turns a model into a pmf on a
support: pmf-level comparisons and ``synth.sample`` start from it.

- Benford: P(d) = log10(1 + 1/d) on first digits d in 1..9, parameter-free.
- Zipf: f(r) = scale / r**exponent on ranks r >= 1.
- Discrete Gamma: f(x) = amplitude * exp(-rate*x) * x**(shape-1) on x > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError
from .validation import as_float_array


@dataclass(frozen=True)
class BenfordModel:
    """Parameter-free logarithmic first-digit law."""

    name = "benford"

    def weights(self, support) -> np.ndarray:
        support = as_float_array(support, "support")
        if np.any((support < 1) | (support > 9) | (support != np.round(support))):
            raise ValueError("Benford support must be integer digits in 1..9")
        return np.log10(1.0 + 1.0 / support)


@dataclass(frozen=True)
class ZipfModel:
    """Power law in rank: value(r) = scale / r**exponent."""

    exponent: float
    scale: float

    name = "zipf"

    def __post_init__(self):
        if not math.isfinite(self.exponent):
            raise ValueError("exponent must be finite")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive and finite")

    def weights(self, support) -> np.ndarray:
        support = as_float_array(support, "ranks")
        if np.any(support < 1):
            raise ValueError("ranks must be >= 1")
        return self.scale * support ** -self.exponent


@dataclass(frozen=True)
class GammaModel:
    """Unnormalized Gamma-type density amplitude*exp(-rate*x)*x**(shape-1).

    ``shape`` may be any real (fitted length data sits below 1) and
    ``rate`` is non-negative; the classical normalization
    amplitude = rate**shape / Gamma(shape) is not imposed, the amplitude
    is a free parameter.
    """

    amplitude: float
    rate: float
    shape: float

    name = "gamma"

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError("amplitude must be positive and finite")
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError("rate must be non-negative and finite")
        if not math.isfinite(self.shape):
            raise ValueError("shape must be finite")

    def weights(self, support) -> np.ndarray:
        support = as_float_array(support, "support")
        if np.any(support <= 0):
            raise ValueError("Gamma support must be positive")
        # evaluate through the log to keep large supports from overflowing
        return self.amplitude * np.exp(
            -self.rate * support + (self.shape - 1.0) * np.log(support)
        )


def discrete_normalize(model, support) -> np.ndarray:
    """Normalize model weights on an explicit discrete support into a pmf."""
    # an overflowing weight is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        weights = model.weights(support)
    total = float(weights.sum())
    if not math.isfinite(total) or total <= 0:
        raise DegenerateModelError(
            f"{model.name} model has zero or non-finite mass on the support"
        )
    return weights / total

