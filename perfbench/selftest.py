#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Analyzes one statements company and two tiny corpora, requires every
check to pass on the real outputs, then corrupts a copy of the report in
one place at a time and requires the check meant for that place to
reject it.  It also requires a changed repetition and a failed analysis
outside the known faults to be rejected.  Exits 1 if any corruption gets through or is caught by the
wrong check.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import sys

import run  # sets the paths; importing it runs nothing


def _fit(report, dimension, model, corpus=0):
    return report["corpora"][corpus]["sections"][dimension]["fits"][model]


def _bump(values, i=0, by=1):
    values[i] += by


def _scale_gamma(fit, factor):
    """Scale amplitude and curve together: consistent, but not least squares."""
    fit["params"]["amplitude"] *= factor
    fit["fitted"] = [v * factor for v in fit["fitted"]]


def _move_cutoff(cutoff, factor):
    cutoff["upper_cutoff"] *= factor
    cutoff["trace_tail"][-1] = cutoff["upper_cutoff"]


def _flip(mapping, key):
    mapping[key] = not mapping[key]


def _worsen_gamma(checks, section):
    """Move the Gamma shape until the fit is worse than the rate-zero one,
    keeping its curve, amplitude and scores self-consistent."""
    import numpy as np

    fit = section["fits"]["gamma"]
    params = fit["params"]
    x = np.asarray(fit["support"])
    y = np.asarray(fit["observed"])
    nested = section["fits"]["gamma_rate_zero"]["residual_sum"]
    while checks.profiled_sse(x, y, params["rate"], params["shape"]) <= 2 * nested + 1e-12:
        params["shape"] += 0.25
    g, shift = checks._gamma_basis(x, params["rate"], params["shape"])
    params["amplitude"] = float(y @ g) / float(g @ g) * math.exp(-shift)
    fitted = params["amplitude"] * np.exp(-params["rate"] * x + (params["shape"] - 1) * np.log(x))
    fit["fitted"] = fitted.tolist()
    fit["residual_sum"] = float(np.sum((y - fitted) ** 2))
    fit["scores"] = checks.recompute_scores(y, fitted)
    fit["verdict"] = checks.expected_verdict(fit["scores"])


def corruptions(checks):
    """(what is corrupted, the check that must catch it, how)."""
    return [
        ("unknown report key", "schema", lambda r: r.update(extra=1)),
        ("first-digit count bumped", "views",
         lambda r: _bump(r["corpora"][0]["sections"]["first_digit"]["counts"])),
        ("length count bumped", "views",
         lambda r: _bump(r["corpora"][0]["sections"]["length"]["counts"], -1)),
        ("rank-frequency count bumped", "views",
         lambda r: _bump(r["corpora"][0]["sections"]["frequency"]["counts"])),
        ("ranked values swapped", "views",
         lambda r: r["corpora"][0]["sections"]["frequency"]["values"].reverse()),
        ("year changed", "views", lambda r: _bump(r["corpora"][1], "year")),
        ("mean moved by one ulp", "stats",
         lambda r: r["corpora"][0]["stats"].update(
             mean=math.nextafter(r["corpora"][0]["stats"]["mean"], math.inf))),
        ("median bumped", "stats", lambda r: _bump(r["corpora"][0]["stats"], "median")),
        ("fit support shifted", "fit_inputs",
         lambda r: _bump(_fit(r, "length", "zipf")["support"], 0, 0.5)),
        ("Benford curve edited", "benford",
         lambda r: _bump(_fit(r, "first_digit", "benford")["fitted"], 0, 1e-6)),
        ("Zipf exponent edited", "zipf",
         lambda r: _bump(_fit(r, "frequency", "zipf")["params"], "exponent", 1e-6)),
        ("Gamma shape edited", "gamma_curve",
         lambda r: _bump(_fit(r, "length", "gamma")["params"], "shape", 1e-6)),
        ("Gamma amplitude and curve scaled together", "gamma_amplitude",
         lambda r: _scale_gamma(_fit(r, "first_digit", "gamma"), 1.01)),
        ("Gamma fit moved off its optimum", "gamma_nested",
         lambda r: _worsen_gamma(checks, r["corpora"][0]["sections"]["length"])),
        ("R^2 edited", "scores",
         lambda r: _bump(_fit(r, "length", "gamma")["scores"], "r_squared", 1e-6)),
        ("KL edited", "scores", lambda r: _bump(_fit(r, "frequency", "zipf")["scores"], "kl", 1e-6)),
        ("JS edited", "scores",
         lambda r: _bump(_fit(r, "first_digit", "benford")["scores"], "js", 1e-6)),
        ("MAPE edited", "scores",
         lambda r: _bump(_fit(r, "length", "zipf")["scores"], "mape", 1e-6)),
        ("verdict flipped", "scores",
         lambda r: _fit(r, "first_digit", "benford")["verdict"].update(kl="fail")),
        ("residual sum edited", "scores",
         lambda r: _bump(_fit(r, "length", "gamma_rate_zero"), "residual_sum", 1e-9)),
        ("cutoff estimate moved", "cutoff",
         lambda r: _move_cutoff(r["corpora"][0]["sections"]["frequency"]["cutoff"], 1.001)),
        ("within_boundary flipped", "boundaries",
         lambda r: _flip(r["corpora"][0]["boundaries"]["entries"][0], "within_boundary")),
        ("pooled count bumped", "pooled",
         lambda r: _bump(r["pooled"]["first_digit"]["observed"], 0, 1e-9)),
        ("trend slope edited", "trends", lambda r: _bump(r["trends"][0], "slope", 1e-6)),
        ("trend flag flipped", "trends", lambda r: _flip(r["trends"][0], "flagged")),
    ]


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    import jsonschema
    from numlaws import extract

    import checks
    import workloads

    validator = jsonschema.Draft7Validator(json.loads(run.SCHEMA.read_text(encoding="utf-8")))
    workdir = run.WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    bad = []

    def expect(what, check, action):
        try:
            action()
        except checks.CheckFailed as exc:
            if exc.check == check:
                print(f"ok      {what}: rejected by {check}")
                return
            bad.append(f"{what}: rejected by {exc.check}, not {check} ({exc})")
            return
        bad.append(f"{what}: not rejected")

    try:
        case = workloads.statements(0, workdir)[0]
        first = case.collect(case.run())
        report = json.loads(first["report.json"])
        extracted = {label: extract.read_text_corpus(path).values
                     for label, path in case.paths.items()}
        for label, values in extracted.items():
            checks.check_extraction(values, case.planted[label])
        checks.check_report(report, case.planted, validator, case.years)
        print("ok      the real outputs pass every check")

        for what, check, corrupt in corruptions(checks):
            corrupted = copy.deepcopy(report)
            corrupt(corrupted)
            expect(what, check, lambda: checks.check_report(
                corrupted, case.planted, validator, case.years))

        label = next(iter(extracted))
        swapped = list(extracted[label])
        swapped[0], swapped[1] = swapped[1], swapped[0]
        expect("extracted values reordered", "extraction",
               lambda: checks.check_extraction(swapped, case.planted[label]))
        expect("planted integer negative", "planted",
               lambda: checks.expected_views([-1, 2]))
        outcome = ("ok", run.digests(first))
        changed = ("ok", dict(outcome[1], **{"report.json": "0" * 64}))
        expect("output bytes changed on a repetition", "repeatable",
               lambda: checks.check_repeatable(outcome, changed, case.label))
        expect("a repetition failed", "repeatable",
               lambda: checks.check_repeatable(outcome, ("failed", "ValueError"), case.label))

        # on tiny, only an exception other than NumlawsError is a failure
        refused = workloads.tiny_case("empty", [])
        crashed = workloads.tiny_case("negative", [-1])
        if run.attempt(refused)[1][0] != "ok":
            bad.append("a NumlawsError was counted as a failed analysis")
        _, outcome, output = run.attempt(crashed)
        if outcome[0] != "failed":
            bad.append("a ValueError was not counted as a failed analysis")
        else:
            print("ok      tiny: ValueError counts as failed, NumlawsError does not")

        # only the known faults may fail
        checks.check_failures(workloads.KNOWN_FAULTS, workloads.KNOWN_FAULTS)
        expect("an analysis outside the known faults failed", "failures",
               lambda: checks.check_failures({crashed.label}, workloads.KNOWN_FAULTS))
        problems = run.check_outputs([crashed], {crashed.label: outcome},
                                     {crashed.label: output})
        if not any(p.startswith("failures:") for p in problems):
            bad.append(f"the benchmark let an unexpected failed analysis pass: {problems}")
        else:
            print("ok      the benchmark reports an unexpected failed analysis")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in bad:
        print(f"FAILED  {problem}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
