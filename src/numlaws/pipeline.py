"""Per-corpus analyses, pooled fits, trend detection and report assembly.

Each corpus is analyzed along three dimensions (first digit, value
frequency, decimal length); every dimension carries its candidate fits,
optional cutoff estimate and data-quality notes, among them each fit
that ``fitting`` refused.  A report over several corpora adds pooled
fits, year-over-year trends of each finite R^2 and anomaly flags.
Reports are pure functions of corpus + configuration: identical inputs
serialize to byte-identical JSON.

``DIMENSIONS`` is the one registry of per-dimension policy: the view
built from the corpus, the candidate fits in preference order, the law
fitted to pooled corpora and solved for the cutoff, the primary model
whose failure is an anomaly, and the observed share a boundary is
compared against.  ``analyze_dimension``, the pooled fits and ``numlaws
cutoff`` run a dimension from its record (the length dimension's Zipf
candidate is ``fit_zipf`` under its alias ``fit_zipf_on_lengths``); the
CLI and ``AnalysisConfig`` read their dimension names from it.

The ``number-law-report/1`` format lives here too: ``_encode`` writes
each record as its fields, or as its ``to_dict()`` when its class
defines one, so a field added to a record is written with no other edit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, is_dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import (
    CorpusStats,
    DigitHistogram,
    LengthHistogram,
    NumberCorpus,
    RankFrequencyTable,
    corpus_stats,
)
from .cutoff import (
    BoundarySummary,
    CutoffEstimate,
    cutoff_report,
    estimate_cutoff_gamma,
    estimate_cutoff_zipf,
)
from .errors import InsufficientDataError, NumlawsError
from .extract import FOOTNOTE_MARKERS, THOUSANDS_SEPARATORS
from .fitting import (
    FitResult,
    fit_benford,
    fit_gamma,
    fit_gamma_rate_zero,
    fit_zipf,
    fit_zipf_on_lengths,
    pooled_fit,
)

REPORT_SCHEMA_ID = "number-law-report/1"

TREND_SLOPE_THRESHOLD = -0.02


@dataclass(frozen=True)
class Dimension:
    """How one dimension is viewed, fitted, bounded and judged."""

    view: type
    # candidates in preference order: (model name, fitter in this module);
    # the fitter is looked up by name at call time so that a replaced
    # module function is the one called
    fits: tuple[tuple[str, str], ...]
    # the candidate fitted to pooled corpora and solved for the cutoff
    law: str
    # conformity model whose failure flags the dimension as anomalous
    primary_model: str
    # observed share compared with the estimated boundary, from frequencies
    boundary_share: Callable
    # fit whose exponent ~ 0 is noted as a degenerate flat line
    flat_fit: str | None = None

    def fit_law(self, view) -> FitResult:
        """The ``law`` candidate's fit to ``view``."""
        return globals()[dict(self.fits)[self.law]](view)


DIMENSIONS = {
    # the digit axis doubles as a rank axis, so Gamma is always tried too
    "first_digit": Dimension(
        view=DigitHistogram,
        fits=(("benford", "fit_benford"), ("gamma", "fit_gamma")),
        law="gamma",
        primary_model="benford",
        boundary_share=max,
    ),
    "frequency": Dimension(
        view=RankFrequencyTable,
        fits=(("zipf", "fit_zipf"),),
        law="zipf",
        primary_model="zipf",
        boundary_share=max,
        flat_fit="zipf",
    ),
    # the two comparison candidates (rate pinned to zero, and Zipf with
    # length standing in for rank) reproduce the tail-behavior experiment
    "length": Dimension(
        view=LengthHistogram,
        fits=(
            ("gamma", "fit_gamma"),
            ("gamma_rate_zero", "fit_gamma_rate_zero"),
            ("zipf", "fit_zipf_on_lengths"),
        ),
        law="gamma",
        primary_model="gamma",
        boundary_share=lambda frequencies: frequencies[-1],
    ),
}


@dataclass(frozen=True)
class AnalysisConfig:
    analyses: tuple[str, ...] = tuple(DIMENSIONS)
    cutoff: bool = False

    def __post_init__(self):
        bad = set(self.analyses) - set(DIMENSIONS)
        if bad:
            raise ValueError(f"unknown analyses: {sorted(bad)}")
        if len(set(self.analyses)) < len(self.analyses):
            raise ValueError(f"repeated analyses: {list(self.analyses)}")


@dataclass(frozen=True)
class AnalysisSection:
    """One dimension's observed snapshot plus everything fitted to it."""

    dimension: str
    support: tuple[float, ...]
    counts: tuple[int, ...]
    frequencies: tuple[float, ...]
    fits: dict[str, FitResult]
    values: tuple[int, ...] | None = None
    preferred_model: str | None = None
    cutoff: CutoffEstimate | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self):
        # only the rank table's section writes the values it ranks
        payload = dict(vars(self))
        if self.values is None:
            del payload["values"]
        return payload


@dataclass(frozen=True)
class TrendFinding:
    """Year-over-year drift of one conformity metric."""

    metric: str
    years: tuple[int, ...]
    values: tuple[float, ...]
    slope: float
    flagged: bool


@dataclass(frozen=True)
class CorpusAnalysis:
    label: str
    year: int | None
    stats: CorpusStats
    sections: dict[str, AnalysisSection]
    boundaries: BoundarySummary | None


@dataclass(frozen=True)
class AnalysisReport:
    provenance: dict
    corpora: tuple[CorpusAnalysis, ...]
    pooled: dict[str, FitResult] | None
    trends: tuple[TrendFinding, ...]
    anomalies: tuple[dict, ...]

    def to_dict(self):
        return {"schema": REPORT_SCHEMA_ID, **vars(self)}


def share_scale_cutoff(view, fit: FitResult):
    """Solve for the cutoff on the view's relative-frequency scale.

    The system is the fit's law: a Gamma fit's shape and rate drive the
    Gamma system, a Zipf fit's rank exponent the Zipf system.  Skipped
    when that exponent is not positive.
    """
    law = fit.model.name
    if law not in ("gamma", "zipf"):
        raise TypeError(f"share_scale_cutoff expects a Gamma or Zipf fit, not {law}")
    freqs = np.asarray(view.frequencies, dtype=float)
    positive = freqs[freqs > 0]
    lower = float(positive.min())
    upper_init = float(positive.max())
    exponent = "shape" if law == "gamma" else "exponent"
    alpha = getattr(fit.model, exponent)
    if alpha <= 0:
        raise NumlawsError(f"non-positive fitted {exponent}; cutoff skipped")
    if law == "gamma":
        return estimate_cutoff_gamma(
            n=view.total, lower=lower, alpha=alpha, rate=fit.model.rate, upper_init=upper_init
        )
    return estimate_cutoff_zipf(n=view.total, lower=lower, alpha=alpha, upper_init=upper_init)


def analyze_dimension(
    dimension: str, corpus: NumberCorpus, include_cutoff=False
) -> AnalysisSection:
    """One dimension's view with its candidate fits and optional cutoff.

    A candidate that fails with a NumlawsError is noted as
    "<model name> fit unavailable: <error>" rather than raised, so the
    others and the other sections survive.  The preferred
    model is the first candidate, in the registry's order, with the
    highest R^2.
    """
    spec = DIMENSIONS[dimension]
    view = spec.view.from_corpus(corpus)
    fits: dict[str, FitResult] = {}
    notes: list[str] = []
    for model_name, fitter in spec.fits:
        try:
            fits[model_name] = globals()[fitter](view)
        except NumlawsError as exc:
            notes.append(f"{model_name} fit unavailable: {exc}")
    if spec.flat_fit in fits and abs(fits[spec.flat_fit].model.exponent) < 1e-12:
        notes.append("degenerate: flat rank-frequency line (exponent ~ 0)")
    cutoff = None
    if include_cutoff and spec.law in fits:
        try:
            cutoff = share_scale_cutoff(view, fits[spec.law])
        except NumlawsError as exc:
            notes.append(f"cutoff failed: {exc}")
    candidates = [name for name, _ in spec.fits if name in fits]
    return AnalysisSection(
        dimension=dimension,
        support=tuple(view.support.tolist()),
        counts=view.counts,
        frequencies=tuple(view.frequencies.tolist()),
        fits=fits,
        # only the rank table carries the distinct values it ranks
        values=getattr(view, "values", None),
        preferred_model=max(
            candidates, key=lambda name: fits[name].scores.r_squared, default=None
        ),
        cutoff=cutoff,
        notes=tuple(notes),
    )


def trend_over_years(values_by_year) -> TrendFinding:
    """Least-squares slope of R^2 over calendar years.

    ``values_by_year`` maps year to R^2.  At least 3 distinct years are
    required; the flag raises when the slope drops below
    ``TREND_SLOPE_THRESHOLD`` (-0.02 per year).
    """
    points = {int(year): float(value) for year, value in values_by_year.items()}
    if len(points) < 3:
        raise InsufficientDataError(
            f"trend detection needs >= 3 years, got {len(points)}"
        )
    years = sorted(points)
    values = [points[y] for y in years]
    x = np.asarray(years, dtype=float)
    y = np.asarray(values, dtype=float)
    xc = x - x.mean()
    slope = float(xc @ (y - y.mean())) / float(xc @ xc)
    return TrendFinding(
        metric="r_squared",
        years=tuple(years),
        values=tuple(values),
        slope=slope,
        flagged=slope < TREND_SLOPE_THRESHOLD,
    )


def _analyze_corpus(corpus: NumberCorpus, config: AnalysisConfig) -> CorpusAnalysis:
    sections: dict[str, AnalysisSection] = {}
    for dimension in DIMENSIONS:
        if dimension not in config.analyses:
            continue
        try:
            sections[dimension] = analyze_dimension(
                dimension, corpus, include_cutoff=config.cutoff
            )
        except NumlawsError as exc:
            # per-section isolation: one failed dimension never voids the rest
            sections[dimension] = AnalysisSection(
                dimension=dimension,
                support=(),
                counts=(),
                frequencies=(),
                fits={},
                notes=(f"section failed: {exc}",),
            )
    estimated = {d: s for d, s in sections.items() if s.cutoff is not None}
    boundaries = None
    if estimated:
        boundaries = cutoff_report(
            {d: s.cutoff for d, s in estimated.items()},
            {d: DIMENSIONS[d].boundary_share(s.frequencies) for d, s in estimated.items()},
        )
    return CorpusAnalysis(
        label=corpus.label,
        year=corpus.year,
        stats=corpus_stats(corpus),
        sections=sections,
        boundaries=boundaries,
    )


def _collect_trends(analyses, config: AnalysisConfig):
    trends = []
    by_year = [a for a in analyses if a.year is not None]
    years = [a.year for a in by_year]
    if len(set(years)) < 3 or len(set(years)) != len(years):
        return ()
    for dimension in config.analyses:
        fits_by_year = [
            (a.year, a.sections[dimension].fits) for a in by_year if dimension in a.sections
        ]
        for model_name in sorted({name for _, fits in fits_by_year for name in fits}):
            series = {
                year: fits[model_name].scores.r_squared
                for year, fits in fits_by_year
                # a year whose R^2 is not finite gives no slope
                if model_name in fits and math.isfinite(fits[model_name].scores.r_squared)
            }
            if len(series) < 3:
                continue
            finding = trend_over_years(series)
            trends.append(
                replace(finding, metric=f"{dimension}.{model_name}.{finding.metric}")
            )
    return tuple(trends)


def _anomaly(kind, corpus, dimension, model, detail):
    return dict(kind=kind, corpus=corpus, dimension=dimension, model=model, detail=detail)


def _collect_anomalies(analyses, trends):
    anomalies = []
    for analysis in analyses:
        label = analysis.label
        for dimension in sorted(analysis.sections):
            section = analysis.sections[dimension]
            primary = DIMENSIONS[dimension].primary_model
            fit = section.fits.get(primary)
            if fit is not None and fit.verdict.r_squared == "fail":
                anomalies.append(_anomaly(
                    "poor_fit", label, dimension, primary,
                    f"r_squared={fit.scores.r_squared!r} below acceptance",
                ))
            for note in section.notes:
                anomalies.append(_anomaly("data_quality", label, dimension, None, note))
        if analysis.boundaries is not None:
            for entry in analysis.boundaries.entries:
                if not entry.within_boundary:
                    anomalies.append(_anomaly(
                        "boundary_exceeded", label, entry.dimension, None,
                        f"observed share {entry.observed_share!r} exceeds "
                        f"estimated boundary {entry.estimated_share!r}",
                    ))
    for trend in trends:
        if trend.flagged:
            anomalies.append(_anomaly(
                "declining_trend", None, None, trend.metric,
                f"slope {trend.slope!r} per year",
            ))
    return tuple(anomalies)


def build_report(corpora, config: AnalysisConfig | None = None, inputs=None) -> AnalysisReport:
    """Assemble the full deterministic report for one or more corpora."""
    if isinstance(corpora, NumberCorpus):
        corpora = [corpora]
    corpora = list(corpora)
    if not corpora:
        raise ValueError("build_report needs at least one corpus")
    config = config or AnalysisConfig()
    analyses = [_analyze_corpus(c, config) for c in corpora]

    pooled = {}
    if len(corpora) > 1:
        for dimension in config.analyses:
            spec = DIMENSIONS[dimension]
            try:
                pooled[dimension] = pooled_fit(corpora, spec.view, spec.fit_law)
            except NumlawsError:
                continue

    trends = _collect_trends(analyses, config)
    anomalies = _collect_anomalies(analyses, trends)
    provenance = {
        "inputs": list(inputs) if inputs else [c.label for c in corpora],
        "rules": {
            "thousands_separators": THOUSANDS_SEPARATORS,
            "footnote_markers": FOOTNOTE_MARKERS,
        },
        "analyses": list(config.analyses),
        "cutoff": config.cutoff,
    }
    return AnalysisReport(
        provenance=provenance,
        corpora=tuple(analyses),
        pooled=pooled or None,
        trends=trends,
        anomalies=anomalies,
    )


_encode_string = json.encoder.encode_basestring_ascii


def _encode(obj, pad: str = "\n") -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it,
    with every non-finite float as null so the report is strict JSON.

    ``pad`` is the newline and indent that close ``obj``.  An array of
    only exact ints, or of only finite exact floats, is written by one
    join; ``json`` would call its Python encoder once per element.

    A dataclass record is written as its ``to_dict()`` when its class
    defines one, and otherwise as its fields, ``vars(obj)``; either may
    hold further records, which are written by the same rule.
    """
    if isinstance(obj, str):
        return _encode_string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == {int}:
            items = map(int.__repr__, obj)
        elif kinds == {float} and all(map(math.isfinite, obj)):
            items = map(float.__repr__, obj)
        else:
            items = (_encode(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            _encode_string(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())
        )
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if is_dataclass(obj):
        return _encode(obj.to_dict() if hasattr(obj, "to_dict") else vars(obj), pad)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def report_to_json(report: AnalysisReport) -> str:
    """Canonical JSON serialization: sorted keys, full float precision."""
    return _encode(report) + "\n"


def iter_fits(report: AnalysisReport):
    """(corpus label, dimension, model name, fit) for each corpus's fits, in
    report order, then by dimension name, then by model name; pooled fits
    are left out."""
    for analysis in report.corpora:
        for dimension, section in sorted(analysis.sections.items()):
            for model_name, fit in sorted(section.fits.items()):
                yield analysis.label, dimension, model_name, fit


def write_plot_bundles(report: AnalysisReport, out_dir) -> list:
    """Write per-section CSV plot bundles named <label>.<dimension>.<model>.csv.

    Columns: support, observed frequency, fitted curve, fitted curve
    normalized to a pmf, and |central difference| of the normalized curve,
    one-sided at the edges.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for label, dimension, model_name, fit in iter_fits(report):
        support = np.asarray(fit.support, dtype=float)
        curve = np.asarray(fit.curve, dtype=float)
        pmf = curve / curve.sum()
        gradient = np.abs(np.gradient(pmf, support))
        rows = zip(
            support.tolist(), fit.observed, curve.tolist(), pmf.tolist(), gradient.tolist()
        )
        lines = ["support,observed,fitted,fitted_pmf,abs_gradient"]
        lines.extend(",".join(map(float.__repr__, row)) for row in rows)
        path = out_dir / f"{label}.{dimension}.{model_name}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written
