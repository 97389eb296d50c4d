"""Seeded synthetic corpora drawn from law models.

``sample`` draws from any law model by inverse CDF over an explicit
discrete support: supports are small, so the cumulative table of the
model's pmf is exact and cheap.  Draws come from numpy's default PCG64
generator, so the same seed reproduces the same stream on any platform.
"""

from __future__ import annotations

import numpy as np

from .laws import discrete_normalize


def sample(model, support, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the support, each point with its pmf under model.

    A model with no finite mass on the support raises
    ``DegenerateModelError``.  A Zipf model over values 1..V assigns value
    r to rank r, so a corpus of its draws realizes the rank-frequency law
    directly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cdf = np.cumsum(discrete_normalize(model, support))
    cdf[-1] = 1.0  # guard the last bin against cumulative rounding
    draws = np.random.default_rng(seed).random(n)
    return np.asarray(support)[np.searchsorted(cdf, draws, side="right")]
