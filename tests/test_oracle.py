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
  of the two tables.

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
    assert fit["verdict"] == verdict(fit["scores"]), name


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
        if section["cutoff"] is not None:
            check_cutoff(dimension, section)


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
