"""Acceptance suite: ten go/no-go criteria with pinned tolerances.

Each test times its computational core against the stated budget and
prints one pass/fail line (visible under ``pytest -s``; the -v test
names carry the same per-criterion signal).
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from numlaws import (
    BenfordModel,
    GammaModel,
    LengthHistogram,
    RankFrequencyTable,
    discrete_normalize,
    estimate_cutoff_gamma,
    estimate_cutoff_zipf,
    extract_numbers,
    fit_gamma,
    fit_gamma_rate_zero,
    fit_zipf,
    fit_zipf_on_lengths,
    js_divergence,
    kl_divergence,
    mape,
    r_squared,
    sample,
    trend_over_years,
)

from conftest import histogram, zipf_corpus
from test_cutoff import zipf_map

DATA_DIR = Path(__file__).parent / "data"


@contextmanager
def budget(criterion, description, seconds):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {criterion}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    if elapsed >= seconds:
        print(
            f"criterion {criterion}: FAIL (over {seconds}s budget: "
            f"{elapsed * 1000:.1f} ms) - {description}"
        )
        raise AssertionError(
            f"criterion {criterion} exceeded its {seconds}s budget: {elapsed:.3f}s"
        )
    print(f"criterion {criterion}: PASS ({elapsed * 1000:.1f} ms) - {description}")


def test_criterion_01_benford_constants():
    BenfordModel().weights(range(1, 10))  # warm the call path before timing
    percentages = [30.1, 17.6, 12.5, 9.7, 7.9, 6.7, 5.8, 5.1, 4.6]
    with budget(1, "Benford constants", 1e-3):
        benford = BenfordModel().weights(range(1, 10))
        for digit in range(1, 10):
            value = float(benford[digit - 1])
            reference = math.log(1 + 1 / digit) / math.log(10)
            assert abs(value - reference) < 1e-12
            assert round(value * 1000) / 10 == percentages[digit - 1]


def test_criterion_02_metric_identity_suite():
    rng = np.random.default_rng(20240601)
    ln2 = math.log(2)
    with budget(2, "metric identities over 1000 seeded pmf pairs", 1.0):
        for _ in range(1000):
            p = rng.random(9) + 1e-3
            q = rng.random(9) + 1e-3
            p /= p.sum()
            q /= q.sum()
            kl = kl_divergence(p, q)
            assert kl >= 0.0
            assert kl_divergence(p, p) == 0.0
            js = js_divergence(p, q)
            assert 0.0 <= js <= 1.0
            assert js_divergence(p, p) == 0.0
            assert abs(js - js_divergence(q, p)) < 1e-12
            m = (p + q) / 2
            mixture = 0.5 * (kl_divergence(p, m) + kl_divergence(q, m)) / ln2
            assert abs(js - mixture) < 1e-12
            c = float(rng.uniform(0.01, 100))
            assert abs(mape(c * p, c * q) - mape(p, q)) < 1e-12
            assert r_squared(p, p) == 1.0


def test_criterion_03_zipf_exact_recovery():
    ranks = np.arange(1, 501, dtype=float)
    freqs = 0.054 / ranks**0.75
    with budget(3, "noise-free Zipf parameter recovery", 0.010):
        fit = fit_zipf(histogram(ranks, freqs))
    assert abs(fit.model.exponent - 0.75) < 1e-9
    assert abs(fit.model.scale - 0.054) < 1e-9
    assert abs(fit.scores.r_squared - 1.0) < 1e-9


def test_criterion_04_zipf_sampled_recovery():
    with budget(4, "Zipf exponent recovery on 20 sampled corpora", 5.0):
        for seed in range(20):
            corpus = zipf_corpus(10**5, alpha=0.75, support_size=200, seed=9000 + seed)
            fit = fit_zipf(RankFrequencyTable.from_corpus(corpus))
            assert abs(fit.model.exponent - 0.75) <= 0.05


def test_criterion_05_gamma_exact_recovery():
    digit_model = GammaModel(amplitude=0.38, rate=0.32, shape=1.027)
    length_model = GammaModel(amplitude=0.002, rate=math.exp(-5), shape=1.0 - 0.049)
    digits, lengths = range(1, 10), range(1, 18)
    digit_hist = histogram(digits, discrete_normalize(digit_model, digits))
    length_hist = histogram(lengths, discrete_normalize(length_model, lengths))
    with budget(5, "noise-free Gamma curve recovery and nested dominance", 2.0):
        for hist in (digit_hist, length_hist):
            fit = fit_gamma(hist)
            observed = np.asarray(hist.frequencies)
            curve = np.asarray(fit.curve)
            assert np.max(np.abs(curve - observed) / observed) < 1e-4
            assert fit.scores.r_squared >= 1 - 1e-9
        full = fit_gamma(length_hist)
        pinned = fit_gamma_rate_zero(length_hist)
        assert full.residual_sum <= pinned.residual_sum


def test_criterion_06_tail_comparison_experiment():
    lengths = range(1, 18)
    model = GammaModel(amplitude=0.002, rate=0.1, shape=1.0 - 0.049)
    hist = histogram(lengths, discrete_normalize(model, lengths))
    with budget(6, "raised-rate length data defeats both alternatives", 2.0):
        full = fit_gamma(hist)
        pinned = fit_gamma_rate_zero(hist)
        power = fit_zipf_on_lengths(hist)
    assert full.scores.r_squared > pinned.scores.r_squared
    assert full.scores.r_squared > power.scores.r_squared


def test_criterion_07_cutoff_iterations():
    with budget(7, "cutoff convergence on 20+20 seeded corpora", 5.0):
        for seed in range(20):
            lengths = sample(GammaModel(1.0, 1.2, 1.1), range(1, 4), 10**4, 1000 + seed)
            fit = fit_gamma(LengthHistogram(tuple(np.bincount(lengths)[1:])))
            estimate = estimate_cutoff_gamma(
                n=len(lengths),
                lower=float(lengths.min()),
                alpha=fit.model.shape,
                rate=fit.model.rate,
                upper_init=float(lengths.max()),
            )
            assert estimate.converged and estimate.iterations <= 50
            assert estimate.upper_cutoff >= estimate.lower_cutoff
        for seed in range(20):
            corpus = zipf_corpus(10**5, alpha=0.75, support_size=200, seed=2000 + seed)
            table = RankFrequencyTable.from_corpus(corpus)
            counts = np.asarray(table.counts, dtype=float)
            alpha = fit_zipf(table).model.exponent
            n = len(counts)
            lower = float(counts.min())
            estimate = estimate_cutoff_zipf(
                n=n, lower=lower, alpha=alpha, upper_init=float(counts.max())
            )
            assert estimate.converged and estimate.iterations <= 50
            assert estimate.upper_cutoff >= estimate.lower_cutoff
            residual = abs(
                zipf_map(n, lower, estimate.upper_cutoff, alpha)
                - estimate.upper_cutoff
            ) / estimate.upper_cutoff
            assert residual < 1e-9
        # identical inputs must reproduce the identical evaluation trace
        kwargs = dict(n=10**4, lower=1.0, alpha=1.1, rate=1.2, upper_init=3.0)
        assert (
            estimate_cutoff_gamma(**kwargs).trace == estimate_cutoff_gamma(**kwargs).trace
        )


def test_criterion_08_trend_detection():
    declining = dict(zip(range(2017, 2022), [0.942, 0.908, 0.888, 0.878, 0.799]))
    constant = {2017: 0.9, 2018: 0.9, 2019: 0.9, 2020: 0.9, 2021: 0.9}
    with budget(8, "declining-conformity flag", 0.010):
        assert trend_over_years(declining).flagged
        assert not trend_over_years(constant).flagged


def test_criterion_09_end_to_end_determinism(tmp_path):
    """Two full analyze invocations (argv to files) agree byte-for-byte
    with each other and with the committed golden report; interpreter
    boot is excluded from the clock, the subprocess surface is covered
    by the CLI suite."""
    import contextlib
    import io

    from numlaws.cli import main

    sample = DATA_DIR / "sample_corpus.txt"
    golden = DATA_DIR / "golden_report.json"
    reports = []
    with budget(9, "byte-identical analyze runs against the golden report", 3.0):
        for name in ("one", "two"):
            out_dir = tmp_path / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(
                    [
                        "analyze", "--input", str(sample), "--cutoff",
                        "--out-dir", str(out_dir), "--format", "json",
                    ]
                )
            assert code == 0
            reports.append((out_dir / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert reports[0] == golden.read_bytes()


def test_criterion_10_ingestion_rules():
    text = (DATA_DIR / "statement_fixture.txt").read_text(encoding="utf-8")
    expected = [
        327524894000,
        296503846,
        1862,
        905,
        1250,
        48,
        9544,
        0,
        100,
        8400,
        12345,
        91440300192181490,
    ]
    with budget(10, "fixture document extracts the hand-tokenized corpus", 0.010):
        corpus = extract_numbers(text, label="fixture")
    assert list(corpus.values) == expected
