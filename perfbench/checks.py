"""Independent checks of numlaws outputs.

Every expected value here is recomputed from the integers a generator
planted, or from the definitions the program documents.  Nothing is
compared against a stored copy of an earlier output, and nothing calls
numlaws to compute an expectation.  Each check raises ``CheckFailed``
with its own name, so that the self-test can tell which check caught a
corrupted report.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

DIMENSIONS = ("first_digit", "frequency", "length")
GAMMA_SYSTEM = {"first_digit": "gamma", "length": "gamma", "frequency": "zipf"}
POW10 = np.array([10**k for k in range(19)], dtype=np.int64)

# verdict thresholds as the program documents them
R2_STRONG, R2_ACCEPTABLE = 0.9, 0.8
KL_ACCEPTABLE, JS_ACCEPTABLE, MAPE_ACCEPTABLE = 0.5, 0.2, 0.5
EXACT_RESIDUAL = 1e-12
KL_EPSILON = 1e-10
TREND_SLOPE_THRESHOLD = -0.02
RATE_FLOOR = 1e-12

# tolerances, set from float64 round-off of the quantities compared
REL = 1e-9
FIXED_POINT_REL = 1e-8
NESTED_REL = 1e-6


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def _close(a, b, rel=REL, abs_=1e-12) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def _require(check, condition, detail):
    if not condition:
        raise CheckFailed(check, detail)


def _require_close_all(check, got, want, what, rel=REL, abs_=1e-12):
    _require(check, len(got) == len(want), f"{what}: length {len(got)} != {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        _require(check, _close(g, w, rel, abs_), f"{what}[{i}] = {g!r}, expected {w!r}")


def _finite_or_none(x):
    return float(x) if math.isfinite(x) else None


# ------------------------------------------------------------------ views


def digits_and_lengths(values):
    """First digits (0 for the value 0) and decimal lengths, by integer arithmetic."""
    arr = np.asarray(values, dtype=np.int64)
    lengths = np.maximum(np.searchsorted(POW10, arr, side="right"), 1)
    return arr // POW10[lengths - 1], lengths


def expected_views(values) -> dict:
    """Counts of the three views and the exact stats, from planted integers."""
    arr = np.asarray(values, dtype=np.int64)
    _require("planted", arr.size > 0 and int(arr.min()) >= 0, "planted values must be >= 0")
    digits, lengths = digits_and_lengths(arr)
    distinct, counts = np.unique(arr, return_counts=True)
    order = np.lexsort((distinct, -counts))
    ordered = np.sort(arr)
    n = len(ordered)
    low, high = int(ordered[(n - 1) // 2]), int(ordered[n // 2])
    # exact integer sum: int64 when it cannot overflow, Python ints otherwise
    total = int(arr.sum()) if int(ordered[-1]) * n < 2**63 else sum(arr.tolist())
    return {
        "digit_counts": np.bincount(digits, minlength=10)[1:].tolist(),
        "length_counts": np.bincount(lengths)[1:].tolist(),
        "rank_values": distinct[order].tolist(),
        "rank_counts": counts[order].tolist(),
        "stats": {"observation_count": n, "max": int(ordered[-1]), "min": int(ordered[0]),
                  "mean": total / n, "median": float(low) if n % 2 else (low + high) / 2},
    }


def check_extraction(extracted, planted):
    """The extractor returned exactly the planted integers, in order."""
    got = np.asarray(extracted, dtype=np.int64)
    want = np.asarray(planted, dtype=np.int64)
    _require("extraction", got.shape == want.shape,
             f"{got.size} values extracted, {want.size} planted")
    mismatch = np.flatnonzero(got != want)
    _require("extraction", mismatch.size == 0,
             f"value {mismatch[:1].tolist()} differs from the planted integer")


def _check_section_view(section, support, counts):
    total = sum(counts)
    _require("views", section["counts"] == counts,
             f"{section['dimension']} counts differ from the planted integers")
    _require("views", section["support"] == support,
             f"{section['dimension']} support differs")
    _require("views", section["frequencies"] == [c / total for c in counts],
             f"{section['dimension']} frequencies are not counts / total")


def check_views(entry, expected):
    """Stats and the three views of one corpus, against the planted integers."""
    _require("stats", entry["stats"] == expected["stats"],
             f"stats {entry['stats']} != {expected['stats']}")
    sections = entry["sections"]
    digit_counts = expected["digit_counts"]
    if "first_digit" in sections:
        if sum(digit_counts):
            _check_section_view(sections["first_digit"], [float(d) for d in range(1, 10)],
                                digit_counts)
        else:
            _require("views", sections["first_digit"]["counts"] == [],
                     "digit section of an all-zero corpus is not empty")
    if "length" in sections:
        lengths = expected["length_counts"]
        _check_section_view(sections["length"], [float(k) for k in range(1, len(lengths) + 1)],
                            lengths)
    if "frequency" in sections:
        section = sections["frequency"]
        _require("views", section.get("values") == expected["rank_values"],
                 "rank-frequency values differ from the planted integers")
        _check_section_view(section, [float(r) for r in range(1, len(expected["rank_counts"]) + 1)],
                            expected["rank_counts"])


# ------------------------------------------------------------------- fits


def recompute_scores(observed, fitted) -> dict:
    """R^2, KL, JS and MAPE from their documented definitions."""
    p = np.asarray(observed, dtype=float)
    q = np.asarray(fitted, dtype=float)
    ss_res = float(np.sum((p - q) ** 2))
    ss_tot = float(np.sum((p - p.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= EXACT_RESIDUAL else -math.inf
    else:
        r2 = 1.0 - ss_res / ss_tot
    pp, qq = p / p.sum(), q / q.sum()
    if np.any((qq == 0.0) & (pp > 0.0)):
        qq = (qq + KL_EPSILON) / (qq + KL_EPSILON).sum()
    mask = pp > 0
    kl = float(np.sum(pp[mask] * np.log(pp[mask] / qq[mask])))
    pj, qj = p / p.sum(), q / q.sum()
    m = pj + qj
    left, right = pj > 0, qj > 0
    js = 0.5 * float(np.sum(pj[left] * np.log2(2 * pj[left] / m[left]))) + 0.5 * float(
        np.sum(qj[right] * np.log2(2 * qj[right] / m[right])))
    nz = p != 0
    mape = float(np.mean(np.abs(q[nz] - p[nz]) / np.abs(p[nz])))
    return {"r_squared": r2, "kl": kl, "js": js, "mape": mape}


def expected_verdict(scores) -> dict:
    r2 = scores["r_squared"]
    r2 = -math.inf if r2 is None else r2
    return {
        "r_squared": "strong" if r2 > R2_STRONG else "acceptable" if r2 > R2_ACCEPTABLE else "fail",
        "kl": "acceptable" if scores["kl"] < KL_ACCEPTABLE else "fail",
        "js": "acceptable" if scores["js"] < JS_ACCEPTABLE else "fail",
        "mape": "acceptable" if scores["mape"] < MAPE_ACCEPTABLE else "fail",
    }


def check_scores(fit, where):
    want = recompute_scores(fit["observed"], fit["fitted"])
    for name, value in want.items():
        _require("scores", _close(fit["scores"][name], _finite_or_none(value)),
                 f"{where} {name} = {fit['scores'][name]!r}, recomputed {value!r}")
    _require("scores", fit["verdict"] == expected_verdict(fit["scores"]),
             f"{where} verdict {fit['verdict']} disagrees with its scores")
    sse = float(np.sum((np.asarray(fit["observed"]) - np.asarray(fit["fitted"])) ** 2))
    _require("scores", _close(fit["residual_sum"], sse, abs_=1e-300),
             f"{where} residual_sum {fit['residual_sum']!r} != {sse!r}")


def check_benford(fit, where):
    want = [math.log10(1 + 1 / d) for d in fit["support"]]
    _require_close_all("benford", fit["fitted"], want, f"{where} benford curve")
    _require("benford", fit["params"] == {} and fit["iterations"] == 0,
             f"{where} benford has parameters or iterations")


def ols_loglog(support, observed):
    """Least-squares line through (log x, log y) over y > 0: (slope, intercept)."""
    x = np.asarray(support, dtype=float)
    y = np.asarray(observed, dtype=float)
    keep = y > 0
    lx, ly = np.log(x[keep]), np.log(y[keep])
    slope, intercept = np.linalg.lstsq(np.vstack([lx, np.ones_like(lx)]).T, ly, rcond=None)[0]
    return float(slope), float(intercept)


def check_zipf(fit, where):
    slope, intercept = ols_loglog(fit["support"], fit["observed"])
    params = fit["params"]
    _require("zipf", _close(params["exponent"], -slope, 1e-7, 1e-9),
             f"{where} exponent {params['exponent']!r}, independent OLS gives {-slope!r}")
    _require("zipf", _close(params["scale"], math.exp(intercept), 1e-7),
             f"{where} scale {params['scale']!r}, independent OLS gives {math.exp(intercept)!r}")
    want = [params["scale"] * x ** -params["exponent"] for x in fit["support"]]
    _require_close_all("zipf", fit["fitted"], want, f"{where} zipf curve", abs_=1e-300)


def _gamma_basis(x, rate, shape):
    """exp(-rate*x + (shape-1)*log x), scaled by exp(-shift) to stay finite."""
    log_g = -rate * x + (shape - 1.0) * np.log(x)
    shift = float(log_g.max())
    return np.exp(log_g - shift), shift


def profiled_sse(x, y, rate, shape) -> float:
    """Squared error of the best amplitude for a given (rate, shape)."""
    g, _ = _gamma_basis(x, rate, shape)
    return float(y @ y - (y @ g) ** 2 / (g @ g))


def rate_zero_sse(x, y) -> float:
    """Lowest squared error a rate-zero curve reaches, by a grid over shape.

    A grid minimum is an upper bound on the true one, so a fit that is no
    worse than it cannot be blamed for missing a better nested fit.
    """
    log_g = np.outer(np.arange(-30.0, 30.0, 0.01) - 1.0, np.log(x))
    g = np.exp(log_g - log_g.max(axis=1, keepdims=True))
    sse = y @ y - (g @ y) ** 2 / np.einsum("ij,ij->i", g, g)
    return max(float(sse.min()), 0.0)


def check_gamma(fit, where, rate_zero_fit=None):
    params = fit["params"]
    amplitude, rate, shape = params["amplitude"], params["rate"], params["shape"]
    x = np.asarray(fit["support"], dtype=float)
    y = np.asarray(fit["observed"], dtype=float)
    want = amplitude * np.exp(-rate * x + (shape - 1.0) * np.log(x))
    _require_close_all("gamma_curve", fit["fitted"], want.tolist(),
                       f"{where} gamma curve", abs_=1e-300)
    # profiled least squares: the amplitude solves d(SSE)/dA = 0 exactly
    g, shift = _gamma_basis(x, rate, shape)
    best = float(y @ g) / float(g @ g) * math.exp(-shift)
    _require("gamma_amplitude", _close(amplitude, best, 1e-8, 1e-300),
             f"{where} amplitude {amplitude!r}, stationary amplitude {best!r}")
    _require("gamma_amplitude", rate == 0.0 or rate >= RATE_FLOOR,
             f"{where} rate {rate!r} below the floor was not reported as 0")
    sse = fit["residual_sum"]
    if rate_zero_fit is not None:
        nested = rate_zero_fit["residual_sum"]
    elif rate > 0.0:
        nested = rate_zero_sse(x, y)
    else:
        return
    _require("gamma_nested", sse <= nested * (1 + NESTED_REL) + 1e-15,
             f"{where} SSE {sse!r} is worse than the nested rate-zero fit's {nested!r}")


def check_fit(fit, where, rate_zero_fit=None):
    if fit["model"] == "benford":
        check_benford(fit, where)
    elif fit["model"] == "zipf":
        check_zipf(fit, where)
    else:
        check_gamma(fit, where, rate_zero_fit)
    check_scores(fit, where)


def check_sections_fits(entry):
    for dimension, section in sorted(entry["sections"].items()):
        fits = section["fits"]
        where = f"{entry['label']}.{dimension}"
        for name, fit in sorted(fits.items()):
            _require("fit_inputs", fit["support"] == section["support"]
                     and fit["observed"] == section["frequencies"],
                     f"{where}.{name} was not fitted to its section's frequencies")
            nested = fits.get("gamma_rate_zero") if name == "gamma" else None
            if name == "gamma_rate_zero":
                _require("gamma_nested", fit["params"]["rate"] == 0.0,
                         f"{where}.{name} has a non-zero rate")
            check_fit(fit, f"{where}.{name}", nested)
        if dimension == "first_digit" and section["counts"]:
            _require("fit_inputs", "benford" in fits, f"{where} has no Benford fit")


# ----------------------------------------------------------------- cutoff


def gamma_map(n, lower, upper, alpha, rate):
    deviation = n * (lower / upper) ** (1.0 / alpha) * math.exp(rate * (lower - upper))
    return lower * (1.0 + deviation / n) ** (1.0 / alpha), deviation


def zipf_map(n, lower, upper, alpha):
    return lower * (n / (n * (upper / lower) ** alpha - 1.0)) ** alpha


def check_cutoff(entry, dimension):
    section = entry["sections"][dimension]
    cutoff = section["cutoff"]
    if cutoff is None:
        return
    where = f"{entry['label']}.{dimension}"
    freqs = [f for f in section["frequencies"] if f > 0]
    n = sum(section["counts"])
    lower = min(freqs)
    _require("cutoff", cutoff["lower_cutoff"] == lower, f"{where} lower cutoff is not the least share")
    _require("cutoff", cutoff["trace_head"][0] == max(freqs),
             f"{where} iteration did not start from the largest share")
    upper = cutoff["upper_cutoff"]
    _require("cutoff", cutoff["trace_tail"][-1] == upper, f"{where} trace does not end at the estimate")
    if not cutoff["converged"]:
        return
    try:
        if GAMMA_SYSTEM[dimension] == "gamma":
            params = section["fits"]["gamma"]["params"]
            mapped, deviation = gamma_map(n, lower, upper, params["shape"], params["rate"])
            want_deviation = deviation
        else:
            alpha = section["fits"]["zipf"]["params"]["exponent"]
            mapped = zipf_map(n, lower, upper, alpha)
            want_deviation = n * (lower / upper) ** (1.0 / alpha)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise CheckFailed("cutoff", f"{where} map is undefined at the estimate: {exc}") from None
    _require("cutoff", abs(mapped - upper) <= FIXED_POINT_REL * abs(upper),
             f"{where} converged estimate {upper!r} is not a fixed point (map gives {mapped!r})")
    _require("cutoff", _close(cutoff["deviation"], want_deviation, 1e-6),
             f"{where} deviation {cutoff['deviation']!r}, recomputed {want_deviation!r}")


def check_boundaries(entry):
    with_cutoff = sorted(d for d, s in entry["sections"].items() if s["cutoff"] is not None)
    boundaries = entry["boundaries"]
    if not with_cutoff:
        _require("boundaries", boundaries is None, f"{entry['label']} has boundaries but no cutoff")
        return
    dims = [e["dimension"] for e in boundaries["entries"]]
    _require("boundaries", dims == with_cutoff, f"{entry['label']} boundary entries {dims}")
    for e in boundaries["entries"]:
        section = entry["sections"][e["dimension"]]
        freqs = section["frequencies"]
        observed = freqs[-1] if e["dimension"] == "length" else max(freqs)
        where = f"{entry['label']}.{e['dimension']}"
        _require("boundaries", e["observed_share"] == observed, f"{where} observed share")
        _require("boundaries", e["estimated_share"] == section["cutoff"]["upper_cutoff"],
                 f"{where} estimated share is not the cutoff estimate")
        _require("boundaries", e["within_boundary"] == (e["observed_share"] <= e["estimated_share"]),
                 f"{where} within_boundary disagrees with the shares")
        _require("boundaries", e["converged"] == section["cutoff"]["converged"],
                 f"{where} converged flag disagrees with the cutoff")


# ---------------------------------------------------------- pooled, trends


def _pad_sum(rows):
    width = max(len(r) for r in rows)
    return [sum(r[i] for r in rows if i < len(r)) for i in range(width)]


def check_pooled(report):
    corpora = report["corpora"]
    if len(corpora) < 2:
        _require("pooled", report["pooled"] is None, "single-corpus report has pooled fits")
        return
    pooled = report["pooled"] or {}
    merged = Counter()
    for entry in corpora:
        section = entry["sections"]["frequency"]
        merged.update(dict(zip(section["values"], section["counts"])))
    ranked = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))
    views = {
        "first_digit": _pad_sum([e["sections"]["first_digit"]["counts"] for e in corpora]),
        "length": _pad_sum([e["sections"]["length"]["counts"] for e in corpora]),
        "frequency": [c for _, c in ranked],
    }
    for dimension in DIMENSIONS:
        _require("pooled", dimension in pooled, f"no pooled {dimension} fit")
        counts = views[dimension]
        total = sum(counts)
        fit = pooled[dimension]
        _require("pooled", fit["observed"] == [c / total for c in counts],
                 f"pooled {dimension} counts are not the sum of the per-year counts")
        _require("pooled", fit["support"] == [float(i) for i in range(1, len(counts) + 1)],
                 f"pooled {dimension} support")
        check_fit(fit, f"pooled.{dimension}")


def ols_slope(xs, ys) -> float:
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    return math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / math.fsum(
        (x - mx) ** 2 for x in xs)


def check_trends(report):
    corpora = [e for e in report["corpora"] if e["year"] is not None]
    years = sorted(e["year"] for e in corpora)
    if len(set(years)) < 3 or len(set(years)) != len(years):
        _require("trends", report["trends"] == [], "trends without three distinct years")
        return
    want = {}
    for dimension in report["provenance"]["analyses"]:
        models = sorted({m for e in corpora for m in e["sections"].get(dimension, {}).get("fits", {})})
        for model in models:
            series = sorted((e["year"], e["sections"][dimension]["fits"][model]["scores"]["r_squared"])
                            for e in corpora if model in e["sections"][dimension]["fits"])
            if len(series) >= 3:
                want[f"{dimension}.{model}.r_squared"] = series
    got = {t["metric"]: t for t in report["trends"]}
    _require("trends", sorted(got) == sorted(want), f"trend metrics {sorted(got)}")
    for metric, series in want.items():
        trend = got[metric]
        xs = [float(y) for y, _ in series]
        ys = [v for _, v in series]
        _require("trends", trend["years"] == [y for y, _ in series] and trend["values"] == ys,
                 f"{metric} series differs from the per-year fits")
        if None in ys:  # an R^2 of -inf makes the slope undefined
            _require("trends", trend["slope"] is None, f"{metric} slope over an undefined R^2")
            continue
        slope = ols_slope(xs, ys)
        _require("trends", _close(trend["slope"], slope), f"{metric} slope {trend['slope']!r}, OLS {slope!r}")
        _require("trends", trend["flagged"] == (trend["slope"] < TREND_SLOPE_THRESHOLD),
                 f"{metric} flag disagrees with its slope")


# ----------------------------------------------------------------- report


def check_schema(report, validator):
    errors = sorted(validator.iter_errors(report), key=lambda e: list(e.path))
    _require("schema", not errors,
             f"{len(errors)} schema errors, first: {errors[0].message if errors else ''}")


def check_report(report, planted, validator, years=None):
    """Every check of one parsed report against the integers planted for it."""
    check_schema(report, validator)
    labels = [e["label"] for e in report["corpora"]]
    _require("views", sorted(labels) == sorted(planted), f"report covers {labels}")
    for entry in report["corpora"]:
        if years is not None:
            _require("views", entry["year"] == years[entry["label"]], f"{entry['label']} year")
        check_views(entry, expected_views(planted[entry["label"]]))
        check_sections_fits(entry)
        for dimension in sorted(entry["sections"]):
            check_cutoff(entry, dimension)
        check_boundaries(entry)
    check_pooled(report)
    check_trends(report)


def check_repeatable(first, again, label: str):
    """Repeated analyses of the same input give identical bytes, or fail alike."""
    _require("repeatable", first == again,
             f"{label} outcome or output bytes changed between repetitions")


def check_failures(failed, known):
    """No analysis fails but the known faults."""
    unexpected = sorted(set(failed) - set(known))
    _require("failures", not unexpected, f"unexpected failed analyses: {unexpected}")
