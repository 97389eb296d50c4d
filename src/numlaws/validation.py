"""Input validation helpers shared by metrics, fitting and pipeline code."""

from __future__ import annotations

import numpy as np


def as_float_array(values, name="values"):
    """Coerce to a 1-D float array and require finite entries."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def check_equal_length(p, q, names=("observed", "fitted")):
    if len(p) != len(q):
        raise ValueError(
            f"{names[0]} and {names[1]} must have equal length "
            f"({len(p)} != {len(q)})"
        )


def check_pmf(values, name="pmf", atol=1e-8):
    """Validate a probability vector: non-negative, sums to 1 within atol."""
    arr = as_float_array(values, name)
    if np.any(arr < 0):
        raise ValueError(f"{name} must be non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > atol:
        raise ValueError(f"{name} must sum to 1 (got {total!r})")
    return arr


def support_frequencies(view):
    """Extract ``(support, frequencies)`` float arrays from a fit input.

    A fit input is a view: any object exposing ``support`` and
    ``frequencies`` attributes.
    """
    support = as_float_array(view.support, "support")
    freqs = as_float_array(view.frequencies, "frequencies")
    check_equal_length(support, freqs, ("support", "frequencies"))
    if np.any(freqs < 0):
        raise ValueError("frequencies must be non-negative")
    return support, freqs
