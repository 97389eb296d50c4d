"""Section analyses, curve comparison, trends and report assembly."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from numlaws import (
    AnalysisConfig,
    GammaModel,
    NumberCorpus,
    analyze_dimension,
    benford_pmf,
    build_report,
    curve_compare,
    digit_histogram,
    discrete_normalize,
    fit_benford,
    fit_gamma,
    length_histogram,
    rank_frequency,
    report_to_json,
    sample_zipf_values,
    trend_over_years,
    write_plot_bundles,
)
from numlaws.errors import InsufficientDataError

def load_report_schema():
    """The schema ships as package data; load it the way a consumer would."""
    from importlib.resources import files

    return json.loads(
        (files("numlaws") / "schemas" / "report.schema.json").read_text("utf-8")
    )


def corpus_from_digit_counts(counts, label="digits"):
    """Corpus whose first-digit histogram has exactly the given counts."""
    values = []
    for digit, count in zip(range(1, 10), counts):
        values.extend([digit] * count)
    return NumberCorpus(label, tuple(values))


def corpus_from_length_counts(counts, label="lengths"):
    """Corpus whose decimal-length histogram has exactly the given counts."""
    values = []
    for idx, count in enumerate(counts):
        values.extend([10**idx] * count)
    return NumberCorpus(label, tuple(values))


def rounded_counts(pmf, n=10**6):
    return [max(int(round(p * n)), 0) for p in pmf]


POOLED_DIGIT_PMF = discrete_normalize(GammaModel(0.38, 0.32, 1.027), range(1, 10))
POOLED_LENGTH_PMF = discrete_normalize(
    GammaModel(0.002, math.exp(-5), 1.0 - 0.049), range(1, 13)
)


class TestFirstDigitSection:
    def test_near_benford_corpus_scores_strong(self):
        counts = rounded_counts([benford_pmf(d) for d in range(1, 10)], n=10**5)
        section = analyze_dimension("first_digit", corpus_from_digit_counts(counts))
        fit = section.fits["benford"]
        assert fit.scores.r_squared > 0.9999
        assert fit.verdict.r_squared == "strong"

    def test_pooled_digit_curve_prefers_gamma(self):
        corpus = corpus_from_digit_counts(rounded_counts(POOLED_DIGIT_PMF))
        section = analyze_dimension("first_digit", corpus)
        assert (
            section.fits["gamma"].scores.r_squared
            >= section.fits["benford"].scores.r_squared
        )
        assert section.preferred_model == "gamma"

    def test_adversarial_mass_defeats_both_models(self):
        """A U-shaped digit histogram sits outside both families."""
        corpus = corpus_from_digit_counts([400, 20, 20, 20, 20, 20, 20, 30, 450])
        section = analyze_dimension("first_digit", corpus)
        assert section.fits["benford"].verdict.r_squared == "fail"
        assert section.fits["gamma"].verdict.r_squared == "fail"

    def test_cutoff_attached_on_request(self):
        corpus = corpus_from_digit_counts(rounded_counts(POOLED_DIGIT_PMF, n=10**4))
        section = analyze_dimension("first_digit", corpus, include_cutoff=True)
        assert section.cutoff is not None
        assert section.cutoff.upper_cutoff >= section.cutoff.lower_cutoff


class TestFrequencySection:
    def test_exact_harmonic_table(self):
        corpus = NumberCorpus("h", (1,) * 12 + (2,) * 6 + (3,) * 4 + (4,) * 3)
        section = analyze_dimension("frequency", corpus)
        fit = section.fits["zipf"]
        assert fit.scores.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.model.exponent == pytest.approx(1.0, abs=1e-9)

    def test_all_distinct_corpus_flagged_degenerate(self):
        section = analyze_dimension("frequency", NumberCorpus("d", tuple(range(1, 40))))
        assert section.fits["zipf"].model.exponent == pytest.approx(0.0, abs=1e-12)
        assert any("degenerate" in note for note in section.notes)

    def test_sampled_corpus_recovers_exponent(self):
        corpus = sample_zipf_values(10**5, alpha=0.75, support_size=200, seed=606)
        section = analyze_dimension("frequency", corpus, include_cutoff=True)
        assert abs(section.fits["zipf"].model.exponent - 0.75) < 0.05
        assert section.cutoff is not None
        assert section.values is not None


class TestLengthSection:
    def test_pooled_length_data_ranks_full_gamma_first(self):
        corpus = corpus_from_length_counts(rounded_counts(POOLED_LENGTH_PMF))
        section = analyze_dimension("length", corpus)
        full = section.fits["gamma"].scores.r_squared
        assert full > section.fits["gamma_rate_zero"].scores.r_squared
        assert full > section.fits["zipf"].scores.r_squared
        assert section.preferred_model == "gamma"

    def test_uniform_lengths_fit_exactly(self):
        corpus = corpus_from_length_counts([100, 100, 100])
        section = analyze_dimension("length", corpus)
        fit = section.fits["gamma"]
        assert fit.scores.r_squared == 1.0
        assert fit.model.rate == 0.0
        assert fit.model.shape == pytest.approx(1.0, abs=1e-6)

    def test_single_length_produces_underdetermined_section(self):
        section = analyze_dimension("length", NumberCorpus("s", (5, 6, 7, 8)))
        assert "gamma" not in section.fits
        assert any("underdetermined" in note for note in section.notes)
        assert section.counts == (4,)


class TestCurveCompare:
    def test_identical_fits_give_identical_series(self):
        xs = np.arange(1, 10, dtype=float)
        fit = fit_gamma((xs, POOLED_DIGIT_PMF))
        series = curve_compare(fit, fit)
        assert series.normalized_a == series.normalized_b
        assert series.abs_derivative_a == series.abs_derivative_b

    def test_digit_curve_steeper_than_length_curve_at_low_ranks(self):
        """Direct evaluation: the pooled digit curve falls faster at small
        support values than the nearly flat pooled length curve."""
        digit_fit = fit_gamma((np.arange(1, 10, dtype=float), POOLED_DIGIT_PMF))
        length_fit = fit_gamma((np.arange(1, 13, dtype=float), POOLED_LENGTH_PMF))
        series = curve_compare(digit_fit, length_fit)
        for i in range(3):
            assert series.abs_derivative_a[i] > series.abs_derivative_b[i]

    def test_constant_curve_has_zero_derivative(self):
        xs = np.arange(1, 6, dtype=float)
        fit = fit_gamma((xs, np.full(5, 0.2)))
        series = curve_compare(fit, fit)
        assert all(d <= 1e-12 for d in series.abs_derivative_a)

    def test_rejects_non_gamma_fits(self):
        xs = np.arange(1, 10, dtype=float)
        gamma = fit_gamma((xs, POOLED_DIGIT_PMF))
        benford = fit_benford((xs, np.log10(1 + 1 / xs)))
        with pytest.raises(TypeError):
            curve_compare(benford, gamma)


class TestTrendDetection:
    def test_published_decline_is_flagged(self):
        values = dict(zip(range(2017, 2022), [0.942, 0.908, 0.888, 0.878, 0.799]))
        finding = trend_over_years(values)
        assert finding.slope == pytest.approx(-0.0316, abs=1e-4)
        assert finding.flagged

    def test_constant_sequence_not_flagged(self):
        finding = trend_over_years({2017: 0.9, 2018: 0.9, 2019: 0.9})
        assert finding.slope == 0.0
        assert not finding.flagged

    def test_increasing_sequence_not_flagged(self):
        finding = trend_over_years({2017: 0.7, 2018: 0.8, 2019: 0.9})
        assert finding.slope > 0
        assert not finding.flagged

    def test_two_years_insufficient(self):
        with pytest.raises(InsufficientDataError):
            trend_over_years({2017: 0.9, 2018: 0.8})

    def test_accepts_fit_results(self):
        xs = np.arange(1, 10, dtype=float)
        fit = fit_benford((xs, np.log10(1 + 1 / xs)))
        finding = trend_over_years({2017: fit, 2018: fit, 2019: fit})
        assert finding.values == (1.0, 1.0, 1.0)


class TestBuildReport:
    def test_single_corpus_report_validates_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        corpus = sample_zipf_values(4000, alpha=0.75, support_size=150, seed=12)
        report = build_report(corpus, AnalysisConfig(cutoff=True))
        payload = json.loads(report_to_json(report))
        jsonschema.validate(payload, load_report_schema())

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_report([])

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ValueError):
            AnalysisConfig(analyses=("first_digit", "volume"))

    def test_byte_identical_reports(self):
        corpus = sample_zipf_values(3000, alpha=0.75, support_size=100, seed=2)
        config = AnalysisConfig(cutoff=True)
        a = report_to_json(build_report(corpus, config))
        b = report_to_json(build_report(corpus, config))
        assert a == b

    def test_analyses_toggle_drops_sections(self):
        corpus = sample_zipf_values(2000, alpha=0.75, support_size=100, seed=3)
        config = AnalysisConfig(analyses=("first_digit", "length"))
        report = build_report(corpus, config)
        sections = report.corpora[0].sections
        assert set(sections) == {"first_digit", "length"}

    def test_year_labeled_corpora_produce_pooled_fits_and_trends(self):
        corpora = [
            sample_zipf_values(
                3000, alpha=0.75, support_size=100, seed=40 + k,
                label=f"y{2018 + k}", year=2018 + k,
            )
            for k in range(5)
        ]
        report = build_report(corpora)
        assert report.pooled is not None
        assert set(report.pooled) == {"first_digit", "frequency", "length"}
        assert report.trends
        metrics = {t.metric for t in report.trends}
        assert "frequency.zipf.r_squared" in metrics
        for trend in report.trends:
            assert math.isfinite(trend.slope)

    def test_section_isolation_on_degenerate_corpus(self):
        """A single repeated value degrades every dimension differently;
        no section failure suppresses the others."""
        report = build_report(NumberCorpus("one", (7,) * 50))
        sections = report.corpora[0].sections
        assert set(sections) == {"first_digit", "frequency", "length"}
        assert "benford" in sections["first_digit"].fits
        assert "zipf" not in sections["frequency"].fits
        assert sections["frequency"].notes
        assert "gamma" not in sections["length"].fits

    def test_cutoff_overflow_is_noted_in_its_section(self):
        """Length counts 165/69/66 fit a shape near 6e-4; the Gamma cutoff
        update then overflows, which fails that cutoff, not the report."""
        values = (0,) * 80 + (1,) * 85 + (10,) * 69 + (100,) * 66
        report = build_report(NumberCorpus("overflow", values), AnalysisConfig(cutoff=True))
        notes = report.corpora[0].sections["length"].notes
        assert any(note.startswith("cutoff failed") for note in notes)

    def test_spread_out_digits_still_give_a_report(self):
        """Seven integers of 4 to 16 digits leave five sparse digit bins,
        which once fitted a Gamma spike whose curve overflowed."""
        values = (1871, 7545922990646895, 7988261716587219, 5804477, 843190,
                  7067808913916, 400089832)
        corpus = NumberCorpus("spread", values)
        for cutoff in (False, True):
            report = build_report(corpus, AnalysisConfig(cutoff=cutoff))
            assert set(report.corpora[0].sections) == {"first_digit", "frequency", "length"}
            json.loads(report_to_json(report))

    def test_pooling_identical_corpora_matches_single(self):
        corpus = sample_zipf_values(2000, alpha=0.8, support_size=80, seed=14)
        single = build_report(corpus)
        multi = build_report([corpus, corpus])
        zipf_single = single.corpora[0].sections["frequency"].fits["zipf"]
        zipf_pooled = multi.pooled["frequency"]
        assert zipf_pooled.model.exponent == pytest.approx(
            zipf_single.model.exponent, abs=1e-12
        )

    def test_sections_rederive_from_corpus(self):
        corpus = sample_zipf_values(2000, alpha=0.75, support_size=60, seed=15)
        report = build_report(corpus)
        sections = report.corpora[0].sections
        assert sections["first_digit"].counts == digit_histogram(corpus).counts
        assert sections["length"].counts == length_histogram(corpus).counts
        table = rank_frequency(corpus)
        assert sections["frequency"].values == table.values
        assert sections["frequency"].counts == table.counts

    def test_every_fit_in_a_section_shares_the_observed_snapshot(self):
        corpus = sample_zipf_values(2000, alpha=0.75, support_size=150, seed=18)
        report = build_report(corpus)
        for section in report.corpora[0].sections.values():
            for fit in section.fits.values():
                assert fit.support == section.support
                assert fit.observed == section.frequencies

    def test_non_finite_scores_serialize_as_null(self):
        """A uniform digit histogram has zero variance, so the Benford
        R^2 is -inf internally; strict JSON carries it as null and the
        schema still validates."""
        jsonschema = pytest.importorskip("jsonschema")
        corpus = corpus_from_digit_counts([10] * 9)
        report = build_report(corpus, AnalysisConfig(analyses=("first_digit",)))
        fit = report.corpora[0].sections["first_digit"].fits["benford"]
        assert fit.scores.r_squared == -math.inf
        payload = json.loads(report_to_json(report))
        serialized = payload["corpora"][0]["sections"]["first_digit"]["fits"]["benford"]
        assert serialized["scores"]["r_squared"] is None
        assert serialized["verdict"]["r_squared"] == "fail"
        jsonschema.validate(payload, load_report_schema())

    def test_poor_fit_anomaly_raised_for_adversarial_digits(self):
        corpus = corpus_from_digit_counts([400, 20, 20, 20, 20, 20, 20, 30, 450])
        report = build_report(corpus, AnalysisConfig(analyses=("first_digit",)))
        kinds = {a["kind"] for a in report.anomalies}
        assert "poor_fit" in kinds

    def test_boundary_summary_present_with_cutoff(self):
        corpus = sample_zipf_values(3000, alpha=0.75, support_size=100, seed=16)
        report = build_report(corpus, AnalysisConfig(cutoff=True))
        assert report.corpora[0].boundaries is not None
        dims = {e.dimension for e in report.corpora[0].boundaries.entries}
        assert dims <= {"first_digit", "frequency", "length"}
        assert dims

    def test_plot_bundle_naming(self, tmp_path):
        corpus = sample_zipf_values(1500, alpha=0.75, support_size=150, seed=17, label="demo")
        report = build_report(corpus)
        written = write_plot_bundles(report, tmp_path)
        names = {p.name for p in written}
        assert "demo.first_digit.benford.csv" in names
        assert "demo.frequency.zipf.csv" in names
        assert "demo.length.gamma_rate_zero.csv" in names
        body = (tmp_path / "demo.frequency.zipf.csv").read_text(encoding="utf-8")
        assert body.splitlines()[0] == "support,observed,fitted,fitted_pmf,abs_gradient"
