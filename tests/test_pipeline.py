"""Section analyses, plot bundles, trends and report assembly."""

import importlib.util
import json
import math
import sys
import time
from dataclasses import dataclass, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import zipf_corpus
from numlaws import (
    AnalysisConfig,
    BenfordModel,
    DigitHistogram,
    GammaModel,
    LengthHistogram,
    NumberCorpus,
    RankFrequencyTable,
    analyze_dimension,
    build_report,
    discrete_normalize,
    fit_gamma,
    report_to_json,
    trend_over_years,
    write_plot_bundles,
)
from numlaws.errors import IngestError, InsufficientDataError, NumlawsError
from numlaws.pipeline import _encode


def load_perfbench_workloads():
    """The benchmark's workload module, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look the module up by name while they are built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


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
        counts = rounded_counts(BenfordModel().weights(range(1, 10)), n=10**5)
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

    def test_unbounded_gamma_fit_noted_without_cutoff(self):
        """The benchmark's single_digit_with_zeros: its digit SSE has no
        minimum at finite parameters, so the report notes the refusal and
        solves no first-digit cutoff."""
        corpus = NumberCorpus("s", (0, 0, 0, 0, 1, 1, 1, 2, 2, 5))
        report = build_report(corpus, AnalysisConfig(cutoff=True))
        section = report.corpora[0].sections["first_digit"]
        assert "gamma" not in section.fits
        assert section.cutoff is None
        assert any(
            note.startswith("gamma fit unavailable: Gamma SSE has no minimum at finite parameters")
            for note in section.notes
        )
        dimensions = {e.dimension for e in report.corpora[0].boundaries.entries}
        assert "first_digit" not in dimensions


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
        corpus = zipf_corpus(10**5, alpha=0.75, support_size=200, seed=606)
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
        assert section.fits == {}
        gamma = "Gamma fit needs at least 3 positive-frequency support points"
        assert section.notes == (
            f"gamma fit unavailable: {gamma}",
            f"gamma_rate_zero fit unavailable: {gamma}",
            "zipf fit unavailable: Zipf fit needs at least 2 positive-frequency ranks",
        )
        assert section.counts == (4,)


def bundle_column(path, column):
    """One column of a plot bundle CSV, as floats."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    index = header.split(",").index(column)
    return [float(row.split(",")[index]) for row in rows]


class TestPlotBundleSeries:
    def test_digit_curve_steeper_than_length_curve_at_low_ranks(self, tmp_path):
        """The pooled digit curve's pmf falls faster at small support
        values than the nearly flat pooled length curve's."""
        digits = corpus_from_digit_counts(rounded_counts(POOLED_DIGIT_PMF, n=10**4), "d")
        lengths = corpus_from_length_counts(rounded_counts(POOLED_LENGTH_PMF, n=10**4), "l")
        write_plot_bundles(build_report([digits, lengths]), tmp_path)
        digit_slope = bundle_column(tmp_path / "d.first_digit.gamma.csv", "abs_gradient")
        length_slope = bundle_column(tmp_path / "l.length.gamma.csv", "abs_gradient")
        for i in range(3):
            assert digit_slope[i] > length_slope[i]

    def test_constant_curve_has_zero_gradient(self, tmp_path):
        corpus = corpus_from_digit_counts([7] * 9, "flat")
        write_plot_bundles(build_report(corpus), tmp_path)
        bundle = tmp_path / "flat.first_digit.gamma.csv"
        assert all(d <= 1e-12 for d in bundle_column(bundle, "abs_gradient"))
        assert sum(bundle_column(bundle, "fitted_pmf")) == pytest.approx(1.0, abs=1e-12)


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


class TestBuildReport:
    def test_single_corpus_report_validates_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        corpus = zipf_corpus(4000, alpha=0.75, support_size=150, seed=12)
        report = build_report(corpus, AnalysisConfig(cutoff=True))
        payload = json.loads(report_to_json(report))
        jsonschema.validate(payload, load_report_schema())

    def test_multi_year_report_with_a_skipped_trend_validates_against_schema(self):
        """Pooled fits, trends and boundary entries are schema-checked too.
        The middle year holds only 1- and 2-digit values, so its length
        section has no Gamma fits and those trends, left with two years,
        are skipped while the others are written."""
        jsonschema = pytest.importorskip("jsonschema")
        corpora = [
            zipf_corpus(
                3000, alpha=0.75, support_size=size, seed=50 + k,
                label=f"y{2018 + k}", year=2018 + k,
            )
            for k, size in enumerate((5000, 99, 5000))
        ]
        assert max(corpora[1].values) < 100
        report = build_report(corpora, AnalysisConfig(cutoff=True))
        payload = json.loads(report_to_json(report))
        jsonschema.validate(payload, load_report_schema())
        assert set(payload["pooled"]) == {"first_digit", "frequency", "length"}
        assert all(c["boundaries"]["entries"] for c in payload["corpora"])
        metrics = {t["metric"] for t in payload["trends"]}
        assert not any(m.startswith("length.gamma") for m in metrics)
        assert {"length.zipf.r_squared", "frequency.zipf.r_squared"} <= metrics

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_report([])

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ValueError):
            AnalysisConfig(analyses=("first_digit", "volume"))

    def test_repeated_analysis_rejected(self):
        """A repeated dimension would appear twice in the provenance and
        give every trend of it twice."""
        with pytest.raises(ValueError, match="repeated analyses"):
            AnalysisConfig(analyses=("first_digit", "length", "first_digit"))

    def test_byte_identical_reports(self):
        corpus = zipf_corpus(3000, alpha=0.75, support_size=100, seed=2)
        config = AnalysisConfig(cutoff=True)
        a = report_to_json(build_report(corpus, config))
        b = report_to_json(build_report(corpus, config))
        assert a == b

    def test_analyses_toggle_drops_sections(self):
        corpus = zipf_corpus(2000, alpha=0.75, support_size=100, seed=3)
        config = AnalysisConfig(analyses=("first_digit", "length"))
        report = build_report(corpus, config)
        sections = report.corpora[0].sections
        assert set(sections) == {"first_digit", "length"}

    def test_year_labeled_corpora_produce_pooled_fits_and_trends(self):
        corpora = [
            zipf_corpus(
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

    @pytest.mark.parametrize("years", [(2018, 2019, 2020), (2018, 2019, 2020, 2021)])
    def test_a_year_with_no_finite_r_squared_is_left_out_of_its_trend(self, years):
        """2019 holds each digit once, so its Benford R^2 is -inf.  The
        Benford series is drawn from the other years, and skipped when
        fewer than three are left."""
        corpora = [
            NumberCorpus(f"y{year}", range(1, 10) if year == 2019 else range(1, 500), year=year)
            for year in years
        ]
        report = build_report(corpora)
        benford = report.corpora[1].sections["first_digit"].fits["benford"]
        assert benford.scores.r_squared == -math.inf
        trends = {t.metric: t for t in report.trends}
        assert "frequency.zipf.r_squared" in trends
        assert all(math.isfinite(t.slope) for t in report.trends)
        if len(years) == 3:
            assert "first_digit.benford.r_squared" not in trends
        else:
            assert trends["first_digit.benford.r_squared"].years == (2018, 2020, 2021)

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

    def test_cutoffs_that_once_overflowed_converge(self):
        """Length counts 165/69/66 (the benchmark's fault corpus) fit a
        shape near 6e-4, and one value against 2001 repeats fits a rank
        exponent near 11; on both, a fixed-point loop overflowed, while
        the root is a plain float that the solve finds."""
        for values, dimension in [
            (load_perfbench_workloads().FAULT_A, "length"),
            ((3,) + (7,) * 2001, "frequency"),
        ]:
            corpus = NumberCorpus("overflow", tuple(values))
            report = build_report(corpus, AnalysisConfig(cutoff=True))
            for section in report.corpora[0].sections.values():
                assert not any(note.startswith("cutoff failed") for note in section.notes)
            cutoff = report.corpora[0].sections[dimension].cutoff
            assert cutoff.converged and math.isfinite(cutoff.upper_cutoff)

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
        corpus = zipf_corpus(2000, alpha=0.8, support_size=80, seed=14)
        single = build_report(corpus)
        multi = build_report([corpus, corpus])
        zipf_single = single.corpora[0].sections["frequency"].fits["zipf"]
        zipf_pooled = multi.pooled["frequency"]
        assert zipf_pooled.model.exponent == pytest.approx(
            zipf_single.model.exponent, abs=1e-12
        )

    def test_sections_rederive_from_corpus(self):
        corpus = zipf_corpus(2000, alpha=0.75, support_size=60, seed=15)
        report = build_report(corpus)
        sections = report.corpora[0].sections
        assert sections["first_digit"].counts == DigitHistogram.from_corpus(corpus).counts
        assert sections["length"].counts == LengthHistogram.from_corpus(corpus).counts
        table = RankFrequencyTable.from_corpus(corpus)
        assert sections["frequency"].values == table.values
        assert sections["frequency"].counts == table.counts

    def test_every_fit_in_a_section_shares_the_observed_snapshot(self):
        corpus = zipf_corpus(2000, alpha=0.75, support_size=150, seed=18)
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
        corpus = zipf_corpus(3000, alpha=0.75, support_size=100, seed=16)
        report = build_report(corpus, AnalysisConfig(cutoff=True))
        assert report.corpora[0].boundaries is not None
        dims = {e.dimension for e in report.corpora[0].boundaries.entries}
        assert dims <= {"first_digit", "frequency", "length"}
        assert dims

    def test_plot_bundle_naming(self, tmp_path):
        corpus = zipf_corpus(1500, alpha=0.75, support_size=150, seed=17, label="demo")
        report = build_report(corpus)
        written = write_plot_bundles(report, tmp_path)
        names = {p.name for p in written}
        assert "demo.first_digit.benford.csv" in names
        assert "demo.frequency.zipf.csv" in names
        assert "demo.length.gamma_rate_zero.csv" in names
        body = (tmp_path / "demo.frequency.zipf.csv").read_text(encoding="utf-8")
        assert body.splitlines()[0] == "support,observed,fitted,fitted_pmf,abs_gradient"


REPORT_SECONDS = 5.0


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=10**15),
        st.integers(min_value=1, max_value=3000),
        min_size=1,
        max_size=8,
    )
)
@example({3: 1, 7: 2001})
def test_report_or_typed_error_within_time_bound(value_counts):
    """Any corpus of up to eight distinct values gives a cutoff report
    that serializes, or a NumlawsError, within the time bound."""
    values = [value for value, count in value_counts.items() for _ in range(count)]
    corpus = NumberCorpus("drawn", values)
    started = time.perf_counter()
    try:
        report_to_json(build_report(corpus, AnalysisConfig(cutoff=True)))
    except NumlawsError:
        pass
    assert time.perf_counter() - started < REPORT_SECONDS


def _adjacent_lengths(length):
    """A run of values with ``length`` or ``length + 1`` digits."""
    return st.lists(
        st.integers(min_value=10 ** (length - 1), max_value=10 ** (length + 1) - 1),
        min_size=1,
        max_size=6,
    )


# one corpus's values: runs of short values, of values of up to 309
# digits, of long values at adjacent lengths, and across the float edge
_CORPUS_VALUES = st.lists(
    st.one_of(
        st.lists(st.integers(min_value=0, max_value=10**15), min_size=1, max_size=20),
        st.lists(st.integers(min_value=0, max_value=10**308), min_size=1, max_size=6),
        st.integers(min_value=230, max_value=308).flatmap(_adjacent_lengths),
        st.lists(
            st.integers(min_value=2**1024 - 2**972, max_value=2**1024), min_size=1, max_size=2
        ),
    ),
    min_size=1,
    max_size=3,
).map(lambda runs: [value for run in runs for value in run])

_REPORT_SCHEMA = load_report_schema()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(_CORPUS_VALUES, st.booleans()), min_size=1, max_size=4),
    st.permutations(range(2016, 2020)),
)
@example([([10**307, 10**308, 10**308], False)], [2016, 2017, 2018, 2019])
@example([([10**307, 10**307, 10**308], False)], [2016, 2017, 2018, 2019])
# the middle year's Benford R^2 is -inf
@example(
    [(list(range(1, 500)), True), (list(range(1, 10)), True), (list(range(1, 500)), True)],
    [2018, 2019, 2020, 2021],
)
def test_any_corpora_give_a_valid_report_or_a_typed_error(drawn, years):
    """Up to four corpora, each dated or not, give a cutoff report that
    validates against the schema, or a NumlawsError; no other exception
    and no RuntimeWarning escapes.  Only a value that rounds past the
    largest float is refused when its corpus is built."""
    jsonschema = pytest.importorskip("jsonschema")
    largest = max(value for values, _ in drawn for value in values)
    try:
        corpora = [
            NumberCorpus(f"c{k}", values, year=year if dated else None)
            for k, ((values, dated), year) in enumerate(zip(drawn, years))
        ]
    except IngestError:
        assert largest > sys.float_info.max
        return
    assert largest < 2**1024
    try:
        report = build_report(corpora, AnalysisConfig(cutoff=True))
    except NumlawsError:
        return
    jsonschema.validate(json.loads(report_to_json(report)), _REPORT_SCHEMA)


def sanitize(obj):
    """The report writer's old pre-pass to ``json.dumps``, kept as the
    oracle: every non-finite float becomes None, and a record is
    expanded into its fields."""
    if is_dataclass(obj):
        return sanitize(vars(obj))
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    return obj


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.floats().map(np.float64)  # a float subclass, as numpy results are
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 2**63, -(2**63) - 1])
    | st.text()
)
# arrays of one exact type, which the writer joins in one call
_UNIFORM_ARRAYS = (
    st.lists(st.integers(min_value=-(2**80), max_value=2**80))
    | st.lists(st.floats(allow_nan=False, allow_infinity=False))
    | st.lists(st.floats())
)


@dataclass(frozen=True)
class _Record:
    """A record with no ``to_dict``, written as its fields; they are
    declared out of sorted order."""

    name: object
    body: object


_DOCUMENTS = st.recursive(
    _SCALARS | _UNIFORM_ARRAYS,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children)
    | st.builds(_Record, children, children),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(_DOCUMENTS)
@example({"b": [1, 2], "a": {"x": [0.5, math.nan], "y": ((), {})}, "é": "ü"})
@example([_Record(name="r", body=(_Record(1, math.inf), {"z": None}))])
def test_encode_matches_json_dumps_of_the_sanitized_document(document):
    assert _encode(document) == json.dumps(sanitize(document), sort_keys=True, indent=2)
