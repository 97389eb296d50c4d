"""Cutoff estimation for Gamma and Zipf systems: the one root of map(u) = u."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import zipf_corpus
from numlaws import (
    DigitHistogram,
    GammaModel,
    LengthHistogram,
    NumberCorpus,
    RankFrequencyTable,
    cutoff_report,
    estimate_cutoff_gamma,
    estimate_cutoff_zipf,
    fit_benford,
    fit_gamma,
    fit_zipf,
    sample,
)
from numlaws.cutoff import REFERENCE_BOUNDARY_SHARES, gamma_deviation
from numlaws.errors import CutoffNumericError
from numlaws.pipeline import DIMENSIONS, share_scale_cutoff

FIXED_POINT_REL = 1e-8


def gamma_map(n, lower, upper, alpha, rate):
    """The Gamma-system map in closed form: the deviation at ``upper``,
    then the next upper cutoff from it."""
    deviation = n * (lower / upper) ** (1.0 / alpha) * math.exp(rate * (lower - upper))
    return lower * (1.0 + deviation / n) ** (1.0 / alpha)


def zipf_map(n, lower, upper, alpha):
    """The Zipf-system map in closed form."""
    return lower * (n / (n * (upper / lower) ** alpha - 1.0)) ** alpha


def assert_fixed_point(estimate, mapped):
    upper = estimate.upper_cutoff
    assert estimate.converged
    assert abs(mapped - upper) <= FIXED_POINT_REL * upper


class TestGammaUpdateMap:
    def test_zero_deviation_returns_lower_cutoff(self):
        """The map collapses to the lower cutoff as the deviation
        vanishes; a decay that kills it just above the lower cutoff puts
        the root there."""
        for alpha in (0.5, 1.0, 2.3):
            estimate = estimate_cutoff_gamma(
                n=1000, lower=3.0, alpha=alpha, rate=1e12, upper_init=10.0
            )
            assert estimate.converged
            assert estimate.upper_cutoff == pytest.approx(3.0, rel=1e-9)
            assert estimate.deviation < 1e-3

    def test_deviation_equal_to_n(self):
        """deviation == n at the lower cutoff, where the map doubles the
        bracket to lower * 2**(1/alpha); the root lies strictly between."""
        for alpha, lower in [(1.0, 2.0), (0.75, 5.0), (2.0, 1.0)]:
            assert gamma_deviation(1000, lower, lower, alpha, 0.7) == 1000
            estimate = estimate_cutoff_gamma(
                n=1000, lower=lower, alpha=alpha, rate=0.7, upper_init=5 * lower
            )
            assert lower < estimate.upper_cutoff < lower * 2 ** (1 / alpha)

    def test_monotone_in_deviation(self):
        """The map grows with the deviation, so the root falls as the
        decay rate grows."""
        rng = np.random.default_rng(23)
        for _ in range(200):
            lower = float(rng.uniform(0.1, 50))
            alpha = float(rng.uniform(0.05, 4))
            n = int(rng.integers(1, 10**6))
            r1, r2 = sorted(rng.uniform(0, 5, size=2))
            kwargs = dict(n=n, lower=lower, alpha=alpha, upper_init=2 * lower)
            slow = estimate_cutoff_gamma(rate=float(r1), **kwargs)
            fast = estimate_cutoff_gamma(rate=float(r2), **kwargs)
            assert slow.upper_cutoff >= fast.upper_cutoff

    def test_large_rate_kills_deviation(self):
        dev = gamma_deviation(10**4, 1.0, 50.0, 1.0, rate=100.0)
        assert dev == 0.0 or dev < 1e-300


class TestGammaCutoffIteration:
    def test_synthetic_corpora_converge_near_observed_maximum(self):
        """20 seeded concentrated corpora: the solve converges and the
        estimate stays within a factor of 3 of the largest generated
        value (factor frozen empirically before the build)."""
        for seed in range(20):
            lengths = sample(GammaModel(1.0, 1.2, 1.1), range(1, 4), 10**4, 1000 + seed)
            hist = LengthHistogram(tuple(np.bincount(lengths)[1:]))
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
            assert estimate.iterations <= 50
            assert estimate.upper_cutoff >= estimate.lower_cutoff
            ratio = upper_init / estimate.upper_cutoff
            assert 1 / 3 <= ratio <= 3

    def test_trace_starts_at_initialization(self):
        estimate = estimate_cutoff_gamma(
            n=100, lower=1.0, alpha=1.0, rate=0.5, upper_init=7.0
        )
        assert estimate.trace[0] == 7.0
        assert estimate.trace[-1] == estimate.upper_cutoff

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

    def test_strong_decay_puts_the_root_near_the_lower_cutoff(self):
        """A very large rate makes the map jump between the lower cutoff
        and its doubled bracket, an exact 2-cycle for a fixed-point loop;
        the root between them is found."""
        n, lower, alpha, rate = 1000, 2.0, 1.0, 100.0
        estimate = estimate_cutoff_gamma(
            n=n, lower=lower, alpha=alpha, rate=rate, upper_init=50.0
        )
        assert_fixed_point(estimate, gamma_map(n, lower, estimate.upper_cutoff, alpha, rate))
        assert lower < estimate.upper_cutoff < 1.05 * lower

    def test_non_finite_iterate_raises_with_trace(self):
        """A root beyond the largest float raises, carrying the cutoffs
        evaluated so far."""
        with pytest.raises(CutoffNumericError, match="no root within the float") as excinfo:
            estimate_cutoff_gamma(
                n=10, lower=1e308, alpha=0.5, rate=0.0, upper_init=1e308
            )
        assert excinfo.value.trace[0] == 1e308
        with pytest.raises(CutoffNumericError) as excinfo:
            estimate_cutoff_zipf(n=10, lower=1e308, alpha=0.5, upper_init=1e308)
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
        with pytest.raises(ValueError):
            estimate_cutoff_zipf(n=10, lower=1.0, alpha=1.0, upper_init=math.inf)


class TestZipfCutoffIteration:
    def test_fixed_point_is_stationary(self):
        """The estimate is the fixed point located independently on the
        closed-form map, and the map leaves it in place."""
        n, lower, alpha = 200, 1.0, 0.75
        star = brentq(
            lambda o: zipf_map(n, lower, o, alpha) - o, 1.0 + 1e-9, 2.0, xtol=1e-14
        )
        estimate = estimate_cutoff_zipf(n=n, lower=lower, alpha=alpha, upper_init=5.0)
        assert estimate.upper_cutoff == pytest.approx(star, rel=1e-12)
        moved = zipf_map(n, lower, estimate.upper_cutoff, alpha)
        assert abs(moved - estimate.upper_cutoff) < 1e-12

    def test_large_n_limit_matches_hand_derivation(self):
        """As n grows, log(map(u)/lower) tends to alpha/n - alpha**2 * y
        with y = log(u/lower), so the root tends to
        y = alpha / (n * (1 + alpha**2))."""
        n, lower, alpha = 10**9, 2.0, 0.8
        estimate = estimate_cutoff_zipf(n=n, lower=lower, alpha=alpha, upper_init=5.0)
        limit = lower * math.exp(alpha / (n * (1 + alpha * alpha)))
        assert estimate.upper_cutoff == pytest.approx(limit, rel=1e-11)

    def test_synthetic_corpora_converge(self):
        """20 seeded Zipf corpora: finite converged estimates at or above
        the lower cutoff, with fixed-point residual below 1e-9."""
        for seed in range(20):
            corpus = zipf_corpus_cached(seed)
            table = RankFrequencyTable.from_corpus(corpus)
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
                zipf_map(n, lower, estimate.upper_cutoff, alpha)
                - estimate.upper_cutoff
            ) / estimate.upper_cutoff
            assert residual < 1e-9

    def test_start_at_the_domain_edge_finds_the_root(self):
        """With n = 1 the map is undefined at u = lower, the edge of its
        domain; started there, the solve still finds the root, which for
        alpha = 1 is the golden ratio."""
        estimate = estimate_cutoff_zipf(n=1, lower=1.0, alpha=1.0, upper_init=1.0)
        assert estimate.trace[0] == 1.0
        assert estimate.converged
        assert estimate.upper_cutoff == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-12)

    def test_deterministic_trace(self):
        kwargs = dict(n=300, lower=2.0, alpha=0.9, upper_init=500.0)
        assert estimate_cutoff_zipf(**kwargs).trace == estimate_cutoff_zipf(**kwargs).trace


class TestRootSolve:
    @settings(max_examples=200, deadline=None)
    @given(
        law=st.sampled_from(["gamma", "zipf"]),
        alpha=st.floats(1e-6, 1e3),
        rate=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
        n=st.integers(1, 10**12),
        lower=st.floats(1e-300, 1e300),
        spread=st.floats(1.0, 1e300),
    )
    def test_root_is_a_fixed_point_or_a_numeric_error(
        self, law, alpha, rate, n, lower, spread
    ):
        """Any input converges to a fixed point of the closed-form map,
        or fails with CutoffNumericError.  Outside 1e-6 <= alpha <= 1e3
        the closed-form map itself loses more than 1e-8 to rounding."""
        upper_init = min(lower * spread, 1e308)
        try:
            if law == "gamma":
                estimate = estimate_cutoff_gamma(
                    n=n, lower=lower, alpha=alpha, rate=rate, upper_init=upper_init
                )
            else:
                estimate = estimate_cutoff_zipf(
                    n=n, lower=lower, alpha=alpha, upper_init=upper_init
                )
        except CutoffNumericError:
            return
        upper = estimate.upper_cutoff
        if law == "gamma":
            mapped = gamma_map(n, lower, upper, alpha, rate)
        else:
            mapped = zipf_map(n, lower, upper, alpha)
        assert_fixed_point(estimate, mapped)
        assert estimate.trace[0] == upper_init
        assert estimate.trace[-1] == upper

    @pytest.mark.parametrize(
        "law, kwargs, root",
        [
            ("gamma", dict(n=3008, lower=0.05319148936170213, alpha=0.421162587302206,
                           rate=0.09487737057612713, upper_init=0.28956117021276595), 0.0929),
            ("gamma", dict(n=9, lower=1 / 9, alpha=0.11733216042216389,
                           rate=0.06590765569265752, upper_init=1 / 3), 0.160),
            ("zipf", dict(n=4, lower=0.25, alpha=1.584962500721156, upper_init=0.75), 0.278),
        ],
    )
    def test_inputs_a_fixed_point_loop_cycled_on(self, law, kwargs, root):
        """A first-digit, a length and a rank cutoff on which a fixed-point
        loop cycled between two values and reported one of them."""
        if law == "gamma":
            estimate = estimate_cutoff_gamma(**kwargs)
            mapped = gamma_map(
                kwargs["n"], kwargs["lower"], estimate.upper_cutoff,
                kwargs["alpha"], kwargs["rate"],
            )
        else:
            estimate = estimate_cutoff_zipf(**kwargs)
            mapped = zipf_map(
                kwargs["n"], kwargs["lower"], estimate.upper_cutoff, kwargs["alpha"]
            )
        assert_fixed_point(estimate, mapped)
        lower = kwargs["lower"]
        assert lower < estimate.upper_cutoff < lower * 2 ** (1 / kwargs["alpha"])
        assert estimate.upper_cutoff == pytest.approx(root, abs=5e-4)


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
        corpus = zipf_corpus_cached(0)
        table = RankFrequencyTable.from_corpus(corpus)
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
        table = RankFrequencyTable.from_corpus(corpus)
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
        table = RankFrequencyTable.from_corpus(corpus)
        estimate = estimate_cutoff_zipf(
            n=len(table), lower=0.5, alpha=1.0, upper_init=0.9
        )
        summary = cutoff_report({"frequency": estimate}, frequency_share(table))
        entry = summary.entries[0]
        assert entry.within_boundary == (entry.observed_share <= entry.estimated_share)

    def test_reference_context_carried(self):
        corpus = NumberCorpus("t", (7,) * 5 + (8,) * 3)
        table = RankFrequencyTable.from_corpus(corpus)
        estimate = estimate_cutoff_zipf(n=2, lower=0.375, alpha=1.0, upper_init=0.625)
        payload = cutoff_report({"frequency": estimate}, frequency_share(table)).to_dict()
        assert payload["reference_shares"] == REFERENCE_BOUNDARY_SHARES

    def test_empty_estimates_rejected(self):
        with pytest.raises(ValueError):
            cutoff_report({}, {})


_ZIPF_CACHE = {}


def zipf_corpus_cached(seed):
    if seed not in _ZIPF_CACHE:
        _ZIPF_CACHE[seed] = zipf_corpus(
            10**5, alpha=0.75, support_size=200, seed=2000 + seed
        )
    return _ZIPF_CACHE[seed]
