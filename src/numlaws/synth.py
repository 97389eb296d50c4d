"""Seeded synthetic corpora from known law parameters.

Samplers draw by inverse CDF over explicit discrete supports (supports
here are small, so cumulative tables are exact and cheap) using numpy's
default PCG64 generator: the same 64-bit seed always reproduces the same
stream, on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import NumberCorpus
from .laws import BenfordModel, GammaModel, ZipfModel, discrete_normalize


@dataclass(frozen=True)
class SyntheticHistogram:
    """Noise-free histogram whose frequencies equal a model pmf exactly."""

    support: tuple[float, ...]
    frequencies: tuple[float, ...]


def _sample_discrete(pmf, support, n, seed) -> np.ndarray:
    if n < 1:
        raise ValueError("n must be >= 1")
    pmf = np.asarray(pmf, dtype=float)
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0  # guard the last bin against cumulative rounding
    rng = np.random.default_rng(seed)
    draws = rng.random(n)
    return np.asarray(support)[np.searchsorted(cdf, draws, side="right")]


def sample_benford_digits(n: int, seed: int) -> np.ndarray:
    """n i.i.d. first digits 1..9 distributed per Benford's law."""
    digits = np.arange(1, 10)
    pmf = discrete_normalize(BenfordModel(), digits)
    return _sample_discrete(pmf, digits, n, seed)


def sample_zipf_values(
    n: int,
    alpha: float,
    support_size: int,
    seed: int,
    label: str = "zipf-synth",
    year: int | None = None,
) -> NumberCorpus:
    """Corpus of n draws over values 1..support_size with pmf ~ r**-alpha.

    Value r is assigned to rank r, so the generated corpus realizes the
    rank-frequency law directly.
    """
    if support_size < 2:
        raise ValueError("support_size must be >= 2")
    values = np.arange(1, support_size + 1)
    if alpha == 0.0:
        pmf = np.full(support_size, 1.0 / support_size)
    else:
        pmf = discrete_normalize(ZipfModel(exponent=alpha, scale=1.0), values)
    draws = _sample_discrete(pmf, values, n, seed)
    return NumberCorpus(label=label, values=draws.tolist(), year=year)


def sample_gamma_lengths(
    n: int, rate: float, shape: float, max_length: int, seed: int
) -> np.ndarray:
    """n draws from the discrete Gamma pmf over lengths 1..max_length."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    lengths = np.arange(1, max_length + 1)
    pmf = discrete_normalize(GammaModel(amplitude=1.0, rate=rate, shape=shape), lengths)
    return _sample_discrete(pmf, lengths, n, seed)


def exact_histogram(model, support) -> SyntheticHistogram:
    """Deterministic infinite-sample histogram for exact-recovery tests."""
    pmf = discrete_normalize(model, support)
    return SyntheticHistogram(
        support=tuple(np.asarray(support, dtype=float).tolist()),
        frequencies=tuple(pmf.tolist()),
    )
