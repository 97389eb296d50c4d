"""Per-corpus analyses, pooled fits, trend detection and report assembly.

Each corpus is analyzed along three dimensions (first digit, value
frequency, decimal length); every dimension carries its candidate fits,
optional cutoff estimate and data-quality notes.  A report over several
corpora adds pooled fits, year-over-year conformity trends and anomaly
flags.  Reports are pure functions of corpus + configuration: identical
inputs serialize to byte-identical JSON.

``DIMENSIONS`` is the one registry of per-dimension policy: the view
built from the corpus, the candidate fits in preference order, the law
the cutoff iteration runs on, the primary model whose failure is an
anomaly, and the observed share a boundary is compared against.
``analyze_dimension`` runs any dimension from its record; the CLI and
``AnalysisConfig`` read their dimension names from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
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
from .extract import ExtractionRules
from .fitting import (
    FitResult,
    fit_benford,
    fit_gamma,
    fit_gamma_rate_zero,
    fit_zipf,
    fit_zipf_on_lengths,
    pooled_fit,
)
from .laws import GammaModel

REPORT_SCHEMA_ID = "number-law-report/1"

TREND_SLOPE_THRESHOLD = -0.02


@dataclass(frozen=True)
class Dimension:
    """How one dimension is viewed, fitted, bounded and judged."""

    view: type
    # candidates in preference order: (model name, fitter in this module,
    # note prefix when the fit fails); the fitter is looked up by name at
    # call time so that a replaced module function is the one called
    fits: tuple[tuple[str, str, str], ...]
    # law the cutoff iteration runs on, with that fit's parameters
    cutoff_law: str
    # conformity model whose failure flags the dimension as anomalous
    primary_model: str
    # observed share compared with the estimated boundary, from frequencies
    boundary_share: Callable
    # fit whose exponent ~ 0 is noted as a degenerate flat line
    flat_fit: str | None = None


DIMENSIONS = {
    # the digit axis doubles as a rank axis, so Gamma is always tried too
    "first_digit": Dimension(
        view=DigitHistogram,
        fits=(
            ("benford", "fit_benford", "benford fit unavailable"),
            ("gamma", "fit_gamma", "gamma fit unavailable"),
        ),
        cutoff_law="gamma",
        primary_model="benford",
        boundary_share=max,
    ),
    "frequency": Dimension(
        view=RankFrequencyTable,
        fits=(("zipf", "fit_zipf", "zipf fit unavailable"),),
        cutoff_law="zipf",
        primary_model="zipf",
        boundary_share=max,
        flat_fit="zipf",
    ),
    # the two comparison candidates (rate pinned to zero, and Zipf with
    # length standing in for rank) reproduce the tail-behavior experiment
    "length": Dimension(
        view=LengthHistogram,
        fits=(
            ("gamma", "fit_gamma", "gamma fit underdetermined"),
            ("gamma_rate_zero", "fit_gamma_rate_zero", "rate-zero gamma fit underdetermined"),
            ("zipf", "fit_zipf_on_lengths", "zipf-on-length fit underdetermined"),
        ),
        cutoff_law="gamma",
        primary_model="gamma",
        boundary_share=lambda frequencies: frequencies[-1],
    ),
}


@dataclass(frozen=True)
class AnalysisConfig:
    analyses: tuple[str, ...] = tuple(DIMENSIONS)
    cutoff: bool = False
    rules: ExtractionRules = field(default_factory=ExtractionRules)

    def __post_init__(self):
        bad = set(self.analyses) - set(DIMENSIONS)
        if bad:
            raise ValueError(f"unknown analyses: {sorted(bad)}")


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
        payload = {
            "dimension": self.dimension,
            "support": list(self.support),
            "counts": list(self.counts),
            "frequencies": list(self.frequencies),
            "fits": {name: fit.to_dict() for name, fit in sorted(self.fits.items())},
            "preferred_model": self.preferred_model,
            "cutoff": self.cutoff.to_dict() if self.cutoff else None,
            "notes": list(self.notes),
        }
        if self.values is not None:
            payload["values"] = list(self.values)
        return payload


@dataclass(frozen=True)
class TrendFinding:
    """Year-over-year drift of one conformity metric."""

    metric: str
    years: tuple[int, ...]
    values: tuple[float, ...]
    slope: float
    flagged: bool

    def to_dict(self):
        return {
            "metric": self.metric,
            "years": list(self.years),
            "values": list(self.values),
            "slope": self.slope,
            "flagged": self.flagged,
        }


@dataclass(frozen=True)
class ComparisonSeries:
    """Normalized curves and |first difference| series for two Gamma fits."""

    support_a: tuple[float, ...]
    normalized_a: tuple[float, ...]
    abs_derivative_a: tuple[float, ...]
    support_b: tuple[float, ...]
    normalized_b: tuple[float, ...]
    abs_derivative_b: tuple[float, ...]

    def to_dict(self):
        return {f.name: list(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class CorpusAnalysis:
    label: str
    year: int | None
    stats: CorpusStats
    sections: dict[str, AnalysisSection]
    boundaries: BoundarySummary | None

    def to_dict(self):
        return {
            "label": self.label,
            "year": self.year,
            "stats": self.stats.to_dict(),
            "sections": {
                name: section.to_dict() for name, section in sorted(self.sections.items())
            },
            "boundaries": self.boundaries.to_dict() if self.boundaries else None,
        }


@dataclass(frozen=True)
class AnalysisReport:
    provenance: dict
    corpora: tuple[CorpusAnalysis, ...]
    pooled: dict[str, FitResult] | None
    trends: tuple[TrendFinding, ...]
    anomalies: tuple[dict, ...]

    def to_dict(self):
        return {
            "schema": REPORT_SCHEMA_ID,
            "provenance": self.provenance,
            "corpora": [c.to_dict() for c in self.corpora],
            "pooled": (
                {name: fit.to_dict() for name, fit in sorted(self.pooled.items())}
                if self.pooled
                else None
            ),
            "trends": [t.to_dict() for t in self.trends],
            "anomalies": list(self.anomalies),
        }


def share_scale_cutoff(view, fit: FitResult):
    """Run a cutoff iteration on the view's relative-frequency scale.

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
    params = fit.model.params()
    exponent = "shape" if law == "gamma" else "exponent"
    alpha = params[exponent]
    if alpha <= 0:
        raise NumlawsError(f"non-positive fitted {exponent}; cutoff skipped")
    if law == "gamma":
        return estimate_cutoff_gamma(
            n=view.total, lower=lower, alpha=alpha, rate=params["rate"], upper_init=upper_init
        )
    return estimate_cutoff_zipf(n=view.total, lower=lower, alpha=alpha, upper_init=upper_init)


def analyze_dimension(
    dimension: str, corpus: NumberCorpus, include_cutoff=False
) -> AnalysisSection:
    """One dimension's view with its candidate fits and optional cutoff.

    A candidate that fails with a NumlawsError is noted rather than
    raised, so the others and the other sections survive.  The preferred
    model is the first candidate, in the registry's order, with the
    highest R^2.
    """
    spec = DIMENSIONS[dimension]
    view = spec.view.from_corpus(corpus)
    fits: dict[str, FitResult] = {}
    notes: list[str] = []
    for model_name, fitter, failure in spec.fits:
        try:
            fits[model_name] = globals()[fitter](view)
        except NumlawsError as exc:
            notes.append(f"{failure}: {exc}")
    if spec.flat_fit in fits and abs(fits[spec.flat_fit].model.exponent) < 1e-12:
        notes.append("degenerate: flat rank-frequency line (exponent ~ 0)")
    cutoff = None
    if include_cutoff and spec.cutoff_law in fits:
        try:
            cutoff = share_scale_cutoff(view, fits[spec.cutoff_law])
        except NumlawsError as exc:
            notes.append(f"cutoff failed: {exc}")
    candidates = [name for name, _, _ in spec.fits if name in fits]
    return AnalysisSection(
        dimension=dimension,
        support=tuple(float(x) for x in view.support),
        counts=view.counts,
        frequencies=tuple(float(f) for f in view.frequencies),
        fits=fits,
        # only the rank table carries the distinct values it ranks
        values=getattr(view, "values", None),
        preferred_model=max(
            candidates, key=lambda name: fits[name].scores.r_squared, default=None
        ),
        cutoff=cutoff,
        notes=tuple(notes),
    )


def _normalized_gradient(fit: FitResult):
    """(support, curve, curve as a pmf, |central difference| of the pmf).

    The difference is one-sided at the edges and zero on a one-point
    support.
    """
    support = np.asarray(fit.support, dtype=float)
    curve = np.asarray(fit.curve, dtype=float)
    normalized = curve / curve.sum()
    if len(support) > 1:
        gradient = np.abs(np.gradient(normalized, support))
    else:
        gradient = np.zeros(1)
    return support, curve, normalized, gradient


def curve_compare(fit_a: FitResult, fit_b: FitResult) -> ComparisonSeries:
    """Normalize two Gamma fit curves to pmfs and compare their slopes.

    Emits per-support-point normalized values and central-difference
    |df/dx| series (one-sided at the edges) for external plotting.
    """
    for fit in (fit_a, fit_b):
        if not isinstance(fit.model, GammaModel):
            raise TypeError("curve_compare expects two Gamma fits")
    sa, _, na, da = _normalized_gradient(fit_a)
    sb, _, nb, db = _normalized_gradient(fit_b)
    return ComparisonSeries(
        support_a=tuple(sa), normalized_a=tuple(na), abs_derivative_a=tuple(da),
        support_b=tuple(sb), normalized_b=tuple(nb), abs_derivative_b=tuple(db),
    )


def trend_over_years(values_by_year) -> TrendFinding:
    """Least-squares slope of R^2 over calendar years.

    ``values_by_year`` maps year to either a plain number or a FitResult
    (its R^2 is then read off its scores).  At least 3 distinct years
    are required; the flag raises when the slope drops below
    ``TREND_SLOPE_THRESHOLD`` (-0.02 per year).
    """
    points = {}
    for year, value in values_by_year.items():
        if isinstance(value, FitResult):
            value = value.scores.r_squared
        points[int(year)] = float(value)
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
            series = {year: fits[model_name] for year, fits in fits_by_year if model_name in fits}
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
            try:
                pooled[dimension] = pooled_fit(corpora, dimension)
            except NumlawsError:
                continue

    trends = _collect_trends(analyses, config)
    anomalies = _collect_anomalies(analyses, trends)
    provenance = {
        "inputs": list(inputs) if inputs else [c.label for c in corpora],
        "rules": config.rules.to_dict(),
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


def _sanitize(obj):
    """Map non-finite floats to None so the report is strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def report_to_json(report: AnalysisReport) -> str:
    """Canonical JSON serialization: sorted keys, full float precision."""
    return json.dumps(_sanitize(report.to_dict()), sort_keys=True, indent=2) + "\n"


def write_plot_bundles(report: AnalysisReport, out_dir) -> list:
    """Write per-section CSV plot bundles named <label>.<dimension>.<model>.csv.

    Columns: support, observed frequency, fitted curve, fitted curve
    normalized to a pmf, and |central difference| of the normalized curve.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for analysis in report.corpora:
        for dimension in sorted(analysis.sections):
            section = analysis.sections[dimension]
            for model_name in sorted(section.fits):
                fit = section.fits[model_name]
                support, curve, normalized, gradient = _normalized_gradient(fit)
                path = out_dir / f"{analysis.label}.{dimension}.{model_name}.csv"
                lines = ["support,observed,fitted,fitted_pmf,abs_gradient"]
                lines.extend(
                    ",".join(repr(float(v)) for v in row)
                    for row in zip(support, fit.observed, curve, normalized, gradient)
                )
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                written.append(path)
    return written
