"""Fixed-point cutoff estimation for Gamma and Zipf systems."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from numlaws import (
    DigitHistogram,
    LengthHistogram,
    NumberCorpus,
    cutoff_report,
    estimate_cutoff_gamma,
    estimate_cutoff_zipf,
    fit_benford,
    fit_gamma,
    fit_zipf,
    rank_frequency,
    sample_gamma_lengths,
)
from numlaws.cutoff import (
    DEFAULT_MAX_ITER,
    REFERENCE_BOUNDARY_SHARES,
    gamma_deviation,
    gamma_update,
    zipf_update,
)
from numlaws.errors import CutoffDomainError, CutoffNumericError
from numlaws.pipeline import DIMENSIONS, share_scale_cutoff


class TestGammaUpdateMap:
    def test_zero_deviation_returns_lower_cutoff(self):
        """The update equation collapses to the lower cutoff as the
        deviation vanishes."""
        for alpha in (0.5, 1.0, 2.3):
            assert gamma_update(3.0, 0.0, 1000, alpha) == 3.0
            assert gamma_update(3.0, 1e-300, 1000, alpha) == pytest.approx(3.0)

    def test_deviation_equal_to_n(self):
        """deviation == n doubles the bracket: next iterate is
        lower * 2**(1/alpha)."""
        for alpha, lower in [(1.0, 2.0), (0.75, 5.0), (2.0, 1.0)]:
            expected = lower * 2 ** (1 / alpha)
            assert gamma_update(lower, 1000.0, 1000, alpha) == pytest.approx(
                expected, rel=1e-12
            )

    def test_monotone_in_deviation(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            lower = float(rng.uniform(0.1, 50))
            alpha = float(rng.uniform(0.05, 4))
            n = int(rng.integers(1, 10**6))
            d1, d2 = sorted(rng.uniform(0, 5 * n, size=2))
            if d1 == d2:
                continue
            assert gamma_update(lower, d1, n, alpha) < gamma_update(lower, d2, n, alpha)

    def test_large_rate_kills_deviation(self):
        dev = gamma_deviation(10**4, 1.0, 50.0, 1.0, rate=100.0)
        assert dev == 0.0 or dev < 1e-300


class TestGammaCutoffIteration:
    def test_synthetic_corpora_converge_near_observed_maximum(self):
        """20 seeded concentrated corpora: the iteration converges and the
        estimate stays within a factor of 3 of the largest generated
        value (factor frozen empirically before the build)."""
        for seed in range(20):
            lengths = sample_gamma_lengths(
                10**4, rate=1.2, shape=1.1, max_length=3, seed=1000 + seed
            )
            hist = LengthHistogram.from_lengths(lengths)
            fit = fit_gamma(hist)
            lower, upper_init = float(lengths.min()), float(lengths.max())
            estimate = estimate_cutoff_gamma(
                n=len(lengths),
                lower=lower,
                alpha=fit.model.shape,
                rate=fit.model.rate,
                upper_init=upper_init,
            )
            assert estimate.converged
            assert estimate.iterations <= 10**4
            assert estimate.upper_cutoff >= estimate.lower_cutoff
            ratio = upper_init / estimate.upper_cutoff
            assert 1 / 3 <= ratio <= 3

    def test_trace_starts_at_initialization(self):
        estimate = estimate_cutoff_gamma(
            n=100, lower=1.0, alpha=1.0, rate=0.5, upper_init=7.0
        )
        assert estimate.trace[0] == 7.0

    def test_converged_implies_small_last_step(self):
        estimate = estimate_cutoff_gamma(
            n=10**4, lower=1.0, alpha=1.1, rate=1.2, upper_init=3.0
        )
        assert estimate.converged
        last, prev = estimate.trace[-1], estimate.trace[-2]
        assert abs(last - prev) / abs(last) < 1e-9

    def test_deterministic_trace(self):
        kwargs = dict(n=10**4, lower=1.0, alpha=1.1, rate=1.2, upper_init=3.0)
        assert estimate_cutoff_gamma(**kwargs).trace == estimate_cutoff_gamma(**kwargs).trace

    def test_strong_decay_cycles_without_converging(self):
        """A very large rate makes the update pair an exact 2-cycle between
        the lower cutoff and its doubled bracket; reported honestly."""
        estimate = estimate_cutoff_gamma(
            n=1000, lower=2.0, alpha=1.0, rate=100.0, upper_init=50.0
        )
        assert not estimate.converged
        assert estimate.iterations == DEFAULT_MAX_ITER
        assert len(estimate.trace) == DEFAULT_MAX_ITER + 1

    def test_non_finite_iterate_raises_with_trace(self):
        with pytest.raises(CutoffNumericError) as excinfo:
            estimate_cutoff_gamma(
                n=10, lower=1e308, alpha=0.5, rate=0.0, upper_init=1e308
            )
        assert len(excinfo.value.trace) >= 1
        # 1/alpha of about 1,560 overflows the float power in the update
        with pytest.raises(CutoffNumericError) as excinfo:
            estimate_cutoff_gamma(
                n=300, lower=0.22, alpha=6.4e-4, rate=0.0, upper_init=0.55
            )
        assert len(excinfo.value.trace) >= 1
        # the Zipf map's outer power overflows once an iterate falls near
        # the bracket's root
        with pytest.raises(
            CutoffNumericError, match="Zipf cutoff iteration overflowed"
        ) as excinfo:
            estimate_cutoff_zipf(n=10**6, lower=8.05e-05, alpha=23.5, upper_init=0.557)
        assert len(excinfo.value.trace) >= 1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_cutoff_gamma(n=0, lower=1.0, alpha=1.0, rate=0.0, upper_init=2.0)
        with pytest.raises(ValueError):
            estimate_cutoff_gamma(n=10, lower=5.0, alpha=1.0, rate=0.0, upper_init=2.0)
        with pytest.raises(ValueError):
            estimate_cutoff_gamma(n=10, lower=1.0, alpha=-1.0, rate=0.0, upper_init=2.0)
        with pytest.raises(ValueError):
            estimate_cutoff_gamma(n=10, lower=1.0, alpha=1.0, rate=-0.1, upper_init=2.0)


class TestZipfCutoffIteration:
    def test_fixed_point_is_stationary(self):
        """One iteration from a numerically located fixed point moves by
        less than 1e-12."""
        n, lower, alpha = 200, 1.0, 0.75
        star = brentq(
            lambda o: zipf_update(n, lower, alpha, o) - o, 1.0 + 1e-9, 2.0, xtol=1e-14
        )
        moved = 0.5 * (star + zipf_update(n, lower, alpha, star))
        assert abs(moved - star) < 1e-12

    def test_large_n_limit_matches_hand_derivation(self):
        """As n grows the map tends to lower * (lower/upper)**(alpha**2)."""
        n, lower, alpha, upper = 10**9, 2.0, 0.8, 5.0
        limit = lower * (lower / upper) ** (alpha * alpha)
        assert zipf_update(n, lower, alpha, upper) == pytest.approx(limit, rel=1e-6)

    def test_synthetic_corpora_converge(self):
        """20 seeded Zipf corpora: finite converged estimates at or above
        the lower cutoff, with fixed-point residual below 1e-9."""
        for seed in range(20):
            corpus = sample_zipf_values_cached(seed)
            table = rank_frequency(corpus)
            counts = np.asarray(table.counts, dtype=float)
            lower, upper_init = float(counts.min()), float(counts.max())
            n = len(counts)
            alpha = 0.75
            estimate = estimate_cutoff_zipf(
                n=n, lower=lower, alpha=alpha, upper_init=upper_init
            )
            assert estimate.converged
            assert math.isfinite(estimate.upper_cutoff)
            assert estimate.upper_cutoff >= estimate.lower_cutoff
            residual = abs(
                zipf_update(n, lower, alpha, estimate.upper_cutoff)
                - estimate.upper_cutoff
            ) / estimate.upper_cutoff
            assert residual < 1e-9

    def test_bracket_violation_raises(self):
        with pytest.raises(CutoffDomainError):
            zipf_update(2, 1.0, 1.0, 0.4)
        with pytest.raises(CutoffDomainError):
            estimate_cutoff_zipf(n=1, lower=1.0, alpha=1.0, upper_init=1.0)

    def test_deterministic_trace(self):
        kwargs = dict(n=300, lower=2.0, alpha=0.9, upper_init=500.0)
        assert estimate_cutoff_zipf(**kwargs).trace == estimate_cutoff_zipf(**kwargs).trace


class TestSystemAgreement:
    def test_rate_free_gamma_and_zipf_collapse_into_the_same_window(self):
        """With no exponential factor, both systems settle into the
        lower-anchored window [lower, lower * 2**(1/alpha)] on matched
        inputs."""
        for n, lower, alpha, upper_init in [
            (10**5, 1.0, 0.5, 100.0),
            (1000, 3.0, 1.5, 50.0),
        ]:
            g = estimate_cutoff_gamma(
                n=n, lower=lower, alpha=alpha, rate=0.0, upper_init=upper_init
            )
            z = estimate_cutoff_zipf(n=n, lower=lower, alpha=alpha, upper_init=upper_init)
            hi = lower * 2 ** (1 / alpha)
            assert g.converged and z.converged
            assert lower <= g.upper_cutoff <= hi
            assert lower <= z.upper_cutoff <= hi


class TestShareScaleCutoff:
    def test_system_is_read_from_the_fit(self):
        """On one rank table a Zipf fit runs the Zipf system and a Gamma
        fit the Gamma system, each on the table's share scale; a Benford
        fit has no cutoff system."""
        corpus = sample_zipf_values_cached(0)
        table = rank_frequency(corpus)
        lower, upper = float(min(table.frequencies)), float(max(table.frequencies))
        zipf, gamma = fit_zipf(table), fit_gamma(table)
        assert share_scale_cutoff(table, zipf) == estimate_cutoff_zipf(
            n=table.total, lower=lower, alpha=zipf.model.exponent, upper_init=upper
        )
        assert share_scale_cutoff(table, gamma) == estimate_cutoff_gamma(
            n=table.total, lower=lower, alpha=gamma.model.shape, rate=gamma.model.rate,
            upper_init=upper,
        )
        with pytest.raises(TypeError):
            share_scale_cutoff(table, fit_benford(DigitHistogram.from_corpus(corpus)))


def frequency_share(table):
    return {"frequency": DIMENSIONS["frequency"].boundary_share(table.frequencies)}


class TestCutoffReport:
    def test_single_value_half_share_reported_exactly(self):
        corpus = NumberCorpus("t", (7,) * 50 + tuple(range(100, 150)))
        table = rank_frequency(corpus)
        estimate = estimate_cutoff_zipf(
            n=len(table), lower=float(min(table.frequencies)), alpha=0.75,
            upper_init=float(max(table.frequencies)),
        )
        summary = cutoff_report({"frequency": estimate}, frequency_share(table))
        entry = summary.entries[0]
        assert entry.dimension == "frequency"
        assert entry.observed_share == 0.5

    def test_within_boundary_flag(self):
        corpus = NumberCorpus("t", tuple(range(1, 100)))
        table = rank_frequency(corpus)
        estimate = estimate_cutoff_zipf(
            n=len(table), lower=0.5, alpha=1.0, upper_init=0.9
        )
        summary = cutoff_report({"frequency": estimate}, frequency_share(table))
        entry = summary.entries[0]
        assert entry.within_boundary == (entry.observed_share <= entry.estimated_share)

    def test_reference_context_carried(self):
        corpus = NumberCorpus("t", (7,) * 5 + (8,) * 3)
        table = rank_frequency(corpus)
        estimate = estimate_cutoff_zipf(n=2, lower=0.375, alpha=1.0, upper_init=0.625)
        payload = cutoff_report({"frequency": estimate}, frequency_share(table)).to_dict()
        assert payload["reference_shares"] == REFERENCE_BOUNDARY_SHARES

    def test_empty_estimates_rejected(self):
        with pytest.raises(ValueError):
            cutoff_report({}, {})


_ZIPF_CACHE = {}


def sample_zipf_values_cached(seed):
    from numlaws import sample_zipf_values

    if seed not in _ZIPF_CACHE:
        _ZIPF_CACHE[seed] = sample_zipf_values(
            10**5, alpha=0.75, support_size=200, seed=2000 + seed
        )
    return _ZIPF_CACHE[seed]
