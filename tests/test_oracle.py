"""A report-level oracle: the numbers of a report re-derived from the
value->count table it was built from, by code that shares nothing with
numlaws.

Hypothesis draws small value->count tables, and ``build_report`` with
cutoffs analyzes each; the oracle reads the written report back as JSON
and recomputes, from that JSON and the table alone:

- each view's counts and frequencies, from ``str(v)``;
- each fit's curve at its reported parameters, and its residual sum;
- each fit's R^2, KL, JS (base 2) and MAPE from its observed and fitted
  values, and its verdict from the thresholds the metrics document;
- each cutoff: the reported upper cutoff is the fixed point of its law's
  map within the solver's tolerance, and scipy's ``brentq`` on the
  untransformed equation ``map(u) - u`` confirms the root;
- the summary statistics, from ``statistics.mean`` and
  ``statistics.median`` over every occurrence;
- for two corpora, each pooled fit's observed frequencies, from the sum
  of the two tables;
- each Zipf fit's exponent and scale, from ``np.polyfit`` on (log rank,
  log frequency) over the positive bins, and that a Zipf candidate is
  missing only when no such fit exists in floats;
- each boundary entry, from the section's cutoff and frequencies;
- for three or four corpora with distinct years, each trend: the least
  squares slope (``statistics.linear_regression``) of a candidate's
  finite R^2 over the years, and its flag below -0.02 per year;
- the anomaly list, in order: poor fits of each dimension's primary
  model, section notes, exceeded boundaries and declining trends.

The drawn values cross int64's limit, where a corpus keeps Python ints in
place of an int64 array.

Whether a Gamma fit reaches the least-squares optimum is not checked here.
"""

import json
import math
import statistics
import sys
from collections import Counter

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from numlaws import AnalysisConfig, NumberCorpus, build_report, report_to_json

EPS = sys.float_info.epsilon

# the documented acceptance thresholds (numlaws.metrics module docstring)
R2_STRONG, R2_ACCEPTABLE = 0.9, 0.8
KL_ACCEPTABLE, JS_ACCEPTABLE, MAPE_ACCEPTABLE = 0.5, 0.2, 0.5
# R^2 of a constant observed sequence is 1 when the residual is below this
EXACT_RESIDUAL = 1e-12
# added to every fitted mass when one is zero under positive observed mass
KL_SMOOTH = 1e-10
# Brent's tolerance on y = log(u/lower) is this over max(alpha, 1), plus
# 4 eps |y| (numlaws.cutoff module docstring)
CUTOFF_XTOL = 2e-12

# the law each dimension's cutoff is solved for (README, "How a report is
# built") and the parameter that is its alpha
CUTOFF_LAW = {"first_digit": "gamma", "frequency": "zipf", "length": "gamma"}
ALPHA = {"gamma": "shape", "zipf": "exponent"}
# each dimension's conformity model, whose failed R^2 is a poor fit, and
# the observed share its boundary bounds
PRIMARY = {"first_digit": "benford", "frequency": "zipf", "length": "gamma"}
BOUNDED_SHARE = {"first_digit": max, "frequency": max, "length": lambda f: f[-1]}
# an R^2 slope per year below this flags a declining trend
TREND_SLOPE = -0.02

# small values repeat across tables, large ones spread the lengths, and
# values about 2**63 cross int64's limit
_VALUE = st.one_of(
    st.integers(0, 30),
    st.integers(0, 10**12),
    st.integers(2**63 - 3, 2**63 + 3),
    st.integers(0, 10**300 - 1),
)
_TABLES = st.dictionaries(_VALUE, st.integers(1, 40), min_size=1, max_size=10)


def expected_views(table: dict) -> dict:
    """Each dimension's counts, by definition, from the printed values."""
    digits, lengths = Counter(), Counter()
    for value, count in table.items():
        text = str(value)
        lengths[len(text)] += count
        if value:
            digits[text[0]] += count
    ranked = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "first_digit": [digits[d] for d in "123456789"] if digits else [],
        "frequency": [c for _, c in ranked],
        "length": [lengths[k] for k in range(1, max(lengths) + 1)],
    }


def curve(model: str, params: dict, support) -> list:
    """The law's value at each support point, to 40 significant digits."""
    with mpmath.workdps(40):
        if model == "benford":
            return [float(mpmath.log10(1 + mpmath.mpf(1) / x)) for x in support]
        if model == "zipf":
            scale, exponent = mpmath.mpf(params["scale"]), mpmath.mpf(params["exponent"])
            return [float(scale * mpmath.mpf(x) ** -exponent) for x in support]
        amplitude, rate = mpmath.mpf(params["amplitude"]), mpmath.mpf(params["rate"])
        shape = mpmath.mpf(params["shape"])
        return [
            float(amplitude * mpmath.exp(-rate * x) * mpmath.mpf(x) ** (shape - 1))
            for x in support
        ]


def scores(observed, fitted) -> dict:
    """R^2 and MAPE on the raw values, KL and JS on both sides as pmfs."""
    n = len(observed)
    mean = math.fsum(observed) / n
    ss_res = math.fsum((o - f) ** 2 for o, f in zip(observed, fitted))
    if len(set(observed)) == 1:
        r2 = 1.0 if ss_res <= EXACT_RESIDUAL else -math.inf
    else:
        r2 = 1.0 - ss_res / math.fsum((o - mean) ** 2 for o in observed)
    p = [o / math.fsum(observed) for o in observed]
    q = [f / math.fsum(fitted) for f in fitted]
    smoothed = q
    if any(qi == 0.0 < pi for pi, qi in zip(p, q)):
        smoothed = [qi + KL_SMOOTH for qi in q]
        smoothed = [qi / math.fsum(smoothed) for qi in smoothed]
    kl = math.fsum(pi * (math.log(pi) - math.log(qi)) for pi, qi in zip(p, smoothed) if pi > 0)
    js = math.fsum(
        x * math.log2(2 * x / (x + y)) / 2
        for a, b in ((p, q), (q, p))
        for x, y in zip(a, b)
        if x > 0
    )
    nonzero = [(o, f) for o, f in zip(observed, fitted) if o != 0]
    return {
        "r_squared": r2,
        "kl": kl,
        "js": js,
        "mape": math.fsum(abs(f - o) / o for o, f in nonzero) / len(nonzero),
    }


def verdict(reported: dict) -> dict:
    r2 = -math.inf if reported["r_squared"] is None else reported["r_squared"]
    return {
        "r_squared": "strong" if r2 > R2_STRONG else "acceptable" if r2 > R2_ACCEPTABLE else "fail",
        "kl": "acceptable" if reported["kl"] < KL_ACCEPTABLE else "fail",
        "js": "acceptable" if reported["js"] < JS_ACCEPTABLE else "fail",
        "mape": "acceptable" if reported["mape"] < MAPE_ACCEPTABLE else "fail",
    }


def cutoff_map(law: str, n: int, lower: float, alpha: float, rate: float):
    """The untransformed map whose fixed point is the upper cutoff."""
    if law == "gamma":

        def step(u):
            deviation = n * (lower / u) ** (1 / alpha) * math.exp(rate * (lower - u))
            return lower * (1 + deviation / n) ** (1 / alpha)

    else:

        def step(u):
            return lower * (n / (n * (u / lower) ** alpha - 1)) ** alpha

    return step


def close(reported, expected, rtol=1e-9, atol=1e-12) -> bool:
    if reported is None:  # a non-finite number is written as null
        return not math.isfinite(expected)
    return math.isclose(reported, expected, rel_tol=rtol, abs_tol=atol)


def check_fit(name: str, fit: dict, section: dict):
    assert fit["support"] == section["support"], name
    assert fit["observed"] == section["frequencies"], name
    expected = curve(fit["model"], fit["params"], fit["support"])
    assert all(
        close(f, e, atol=1e-300) for f, e in zip(fit["fitted"], expected, strict=True)
    ), (name, fit["fitted"], expected)
    residual = math.fsum((o - f) ** 2 for o, f in zip(fit["observed"], fit["fitted"]))
    assert close(fit["residual_sum"], residual, atol=1e-300), name
    for metric, value in scores(fit["observed"], fit["fitted"]).items():
        assert close(fit["scores"][metric], value), (name, metric, fit["scores"], value)
    # the documented ranges, which rounding alone must not leave
    assert fit["scores"]["kl"] >= 0 and 0 <= fit["scores"]["js"] <= 1, (name, fit["scores"])
    if fit["model"] == "zipf":
        check_zipf(name, fit)
    assert fit["verdict"] == verdict(fit["scores"]), name


def expected_zipf(support, observed):
    """(exponent, scale) of the least-squares line through (log rank, log
    frequency) over the positive bins, or None when no fit exists in
    floats: fewer than two such bins, or a scale or curve beyond them."""
    points = [(math.log(x), math.log(f)) for x, f in zip(support, observed) if f > 0]
    if len(points) < 2:
        return None
    slope, intercept = np.polyfit(*zip(*points), deg=1)
    with mpmath.workdps(40):
        scale = mpmath.exp(intercept)
        largest = max(scale * mpmath.mpf(x) ** slope for x in support)
    if largest > sys.float_info.max:
        return None
    return -float(slope), float(scale)


def check_zipf(name: str, fit: dict):
    expected = expected_zipf(fit["support"], fit["observed"])
    assert expected is not None, name
    exponent, scale = expected
    assert close(fit["params"]["exponent"], exponent), (name, fit["params"], expected)
    assert close(fit["params"]["scale"], scale), (name, fit["params"], expected)


def check_cutoff(dimension: str, section: dict):
    cutoff, law = section["cutoff"], CUTOFF_LAW[dimension]
    params = section["fits"][law]["params"]
    n, lower = sum(section["counts"]), min(f for f in section["frequencies"] if f > 0)
    assert cutoff["lower_cutoff"] == lower
    if not cutoff["converged"]:
        return
    alpha = params[ALPHA[law]]
    step = cutoff_map(law, n, lower, alpha, params.get("rate", 0.0))
    u = cutoff["upper_cutoff"]
    y = math.log(u / lower)
    # Brent's tolerance, plus the rounding of the map in both solves
    tolerance = CUTOFF_XTOL / max(alpha, 1.0) + 4 * EPS * abs(y) + 64 * EPS * (1 + abs(y))
    # map(u) - u decreases, so a root within ``width`` of y changes its sign
    width = 1e-6 * (1 + abs(y))
    low, high = lower * math.exp(y - width), lower * math.exp(y + width)
    assert step(low) - low > 0 > step(high) - high, (dimension, cutoff)
    root = brentq(lambda v: step(v) - v, low, high, xtol=1e-300, rtol=4 * EPS)
    assert abs(y - math.log(root / lower)) <= tolerance, (dimension, u, root)


def expected_boundaries(sections: dict) -> list:
    """Each cut section's observed share against its upper cutoff."""
    entries = []
    for dimension in sorted(sections):
        cutoff = sections[dimension]["cutoff"]
        if cutoff is None:
            continue
        observed = BOUNDED_SHARE[dimension](sections[dimension]["frequencies"])
        entries.append({
            "converged": cutoff["converged"],
            "dimension": dimension,
            "estimated_share": cutoff["upper_cutoff"],
            "observed_share": observed,
            "within_boundary": observed <= cutoff["upper_cutoff"],
        })
    return entries


def check_trends(report: dict):
    """Each candidate's finite R^2 over the years: its slope and flag."""
    corpora = report["corpora"]
    years = [c["year"] for c in corpora]
    expected = []
    if None not in years and len(set(years)) == len(years) >= 3:
        for dimension in report["provenance"]["analyses"]:
            fits_by_year = sorted(
                (c["year"], c["sections"][dimension]["fits"]) for c in corpora
            )
            for model in sorted({name for _, fits in fits_by_year for name in fits}):
                series = [
                    (year, fits[model]["scores"]["r_squared"])
                    for year, fits in fits_by_year
                    if model in fits and fits[model]["scores"]["r_squared"] is not None
                ]
                if len(series) >= 3:
                    expected.append((f"{dimension}.{model}.r_squared", *zip(*series)))
    assert [t["metric"] for t in report["trends"]] == [e[0] for e in expected]
    for trend, (_, trend_years, values) in zip(report["trends"], expected):
        assert (tuple(trend["years"]), tuple(trend["values"])) == (trend_years, values)
        slope = statistics.linear_regression(trend_years, values).slope
        assert close(trend["slope"], slope), (trend, slope)
        if abs(slope - TREND_SLOPE) > 1e-9:  # the flag of a slope at the threshold is rounding's
            assert trend["flagged"] == (slope < TREND_SLOPE), (trend, slope)


def check_anomalies(report: dict):
    """Each corpus's poor fits and notes by dimension, then its exceeded
    boundaries; then the flagged trends."""
    expected = []
    for analysis in report["corpora"]:
        label, sections = analysis["label"], analysis["sections"]
        for dimension in sorted(sections):
            fit = sections[dimension]["fits"].get(PRIMARY[dimension])
            if fit is not None:
                r2 = fit["scores"]["r_squared"]
                r2 = -math.inf if r2 is None else r2
                if not r2 > R2_ACCEPTABLE:
                    expected.append(("poor_fit", label, dimension, PRIMARY[dimension],
                                     f"r_squared={r2!r} below acceptance"))
            for note in sections[dimension]["notes"]:
                expected.append(("data_quality", label, dimension, None, note))
        boundaries = expected_boundaries(sections)
        assert (analysis["boundaries"] or {"entries": []})["entries"] == boundaries, label
        for entry in boundaries:
            if not entry["within_boundary"]:
                expected.append((
                    "boundary_exceeded", label, entry["dimension"], None,
                    f"observed share {entry['observed_share']!r} exceeds "
                    f"estimated boundary {entry['estimated_share']!r}",
                ))
    for trend in report["trends"]:
        if trend["flagged"]:
            expected.append(("declining_trend", None, None, trend["metric"],
                             f"slope {trend['slope']!r} per year"))
    keys = ("kind", "corpus", "dimension", "model", "detail")
    assert [tuple(a[k] for k in keys) for a in report["anomalies"]] == expected


def expand(table: dict) -> list:
    return [v for v, count in table.items() for _ in range(count)]


def check_stats(stats: dict, values: list):
    assert stats["observation_count"] == len(values)
    assert (stats["min"], stats["max"]) == (min(values), max(values))
    assert stats["mean"] == float(statistics.mean(values)), (stats, values)
    assert stats["median"] == float(statistics.median(values)), (stats, values)


@settings(max_examples=60, deadline=None)
@given(_TABLES)
@example({1: 2, 2: 1, 3: 3, 40: 1, 500: 2, 7000: 1, 0: 1})
@example({0: 3})
@example({5: 1})
@example({2**63 - 1: 2, 2**63: 1, 2**64: 3, 7: 1})
def test_report_matches_the_oracle(table):
    values = expand(table)
    report = json.loads(
        report_to_json(build_report(NumberCorpus("c", values), AnalysisConfig(cutoff=True)))
    )
    check_stats(report["corpora"][0]["stats"], values)
    sections = report["corpora"][0]["sections"]
    for dimension, counts in expected_views(table).items():
        section = sections[dimension]
        assert section["counts"] == counts, dimension
        total = sum(counts)
        assert section["frequencies"] == [c / total for c in counts], dimension
        for name, fit in section["fits"].items():
            check_fit(f"{dimension}.{name}", fit, section)
        if dimension != "first_digit" and "zipf" not in section["fits"]:
            # refused only when no Zipf fit exists in floats
            assert expected_zipf(section["support"], section["frequencies"]) is None, dimension
            assert any(n.startswith("zipf fit unavailable: ") for n in section["notes"])
        if section["cutoff"] is not None:
            check_cutoff(dimension, section)
    check_anomalies(report)


@settings(max_examples=30, deadline=None)
@given(_TABLES, _TABLES)
@example({1: 2, 30: 1, 2**63 - 1: 1}, {2**63: 2, 1: 1, 5: 3})
@example({0: 2}, {0: 1, 12: 1})
def test_pooled_views_are_the_summed_tables(first, second):
    """Each pooled fit observes the frequencies of the two tables' sum, and
    passes the same curve, residual and score checks as a corpus's fits."""
    corpora = [NumberCorpus("a", expand(first)), NumberCorpus("b", expand(second))]
    report = json.loads(report_to_json(build_report(corpora)))
    for analysis, table in zip(report["corpora"], (first, second)):
        check_stats(analysis["stats"], expand(table))
    summed = Counter(first) + Counter(second)
    for dimension, counts in expected_views(summed).items():
        fit = (report["pooled"] or {}).get(dimension)
        if fit is None:  # refused: the corpora's own sections say why
            continue
        total = sum(counts)
        pooled = {
            "support": [float(k) for k in range(1, len(counts) + 1)],
            "frequencies": [c / total for c in counts],
        }
        check_fit(f"pooled.{dimension}", fit, pooled)


@settings(max_examples=12, deadline=None)
@given(
    st.lists(_TABLES, min_size=3, max_size=4),
    st.lists(st.integers(1990, 2030), min_size=4, max_size=4, unique=True),
)
# a Benford R^2 slope of -0.0146 per year, between -0.02 and -0.01
@example([{23: 4, 24: 1, 28: 3, 15: 4}, {18: 2, 13: 4}, {24: 2, 647445: 2, 4: 2}],
         [1990, 2010, 2030])
@example([{0: 17, 1: 3}, {5: 1, 50: 2}, {7: 3, 2**63: 1}, {1: 1}], [2003, 2001, 2002, 2000])
def test_trends_and_anomalies_over_the_years(tables, years):
    """Three or four corpora with distinct years: every trend and anomaly
    of the report, re-derived from its sections."""
    corpora = [
        NumberCorpus(f"c{i}", expand(table), year=year)
        for i, (table, year) in enumerate(zip(tables, years))
    ]
    report = json.loads(report_to_json(build_report(corpora, AnalysisConfig(cutoff=True))))
    check_trends(report)
    check_anomalies(report)
