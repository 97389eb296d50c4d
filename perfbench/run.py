#!/usr/bin/env python3
"""Layered benchmark for numlaws.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload statements --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

One workload runs in one process with one numpy/BLAS thread.  It
generates its seeded inputs, runs every analysis once untimed, then
repeats whole rounds of the same analyses, at least three and for at
least ``--seconds`` seconds, timing each one and requiring the same
output bytes every time.  Peak RSS is read after the timed rounds; the
untimed round's outputs are checked independently after that, so the
checks' own memory does not count.  With ``--trace 1`` the
timed rounds run with every layer function wrapped, and the per-layer
metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A human-readable summary goes
to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "data" / "statement_fixture.txt"
SCHEMA = SRC / "numlaws" / "schemas" / "report.schema.json"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("statements", "bulk", "tiny")
SETUP_REPEATS = 7
# per-analysis medians over three or more samples ignore one slow sample
MIN_ROUNDS = 3
SETUP_CODE = (
    "import sys\n"
    "import numlaws\n"
    "corpus = numlaws.read_text_corpus(sys.argv[1])\n"
    "numlaws.report_to_json(numlaws.build_report(corpus, numlaws.AnalysisConfig(cutoff=True)))\n"
)
END_TO_END = {
    "setup_s": "s",
    "analysis_p50_s": "s",
    "analysis_worst_s": "s",
    "values_per_s": "values/s",
    "peak_rss_mb": "MB",
}


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports numlaws and
    analyzes the statement fixture once."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, str(FIXTURE)]

    def once():
        start = perf_counter()
        child = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
        # a blocking wait: wait(timeout=...) polls, which rounds the time up
        # to its 50 ms sleeps
        watchdog = threading.Timer(120, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        elapsed = perf_counter() - start
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        return elapsed

    once()  # writes byte code and fills the file cache; not counted
    return statistics.median(once() for _ in range(SETUP_REPEATS))


def digests(output: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in output.items()}


def attempt(case):
    """Run one analysis: (seconds, outcome, output or None)."""
    start = perf_counter()
    try:
        result = case.run()
    except Exception as exc:  # a failed analysis is counted, not fatal
        return perf_counter() - start, ("failed", f"{type(exc).__name__}: {exc}"), None
    elapsed = perf_counter() - start
    output = case.collect(result)
    return elapsed, ("ok", digests(output)), output


def rss_mb() -> float:
    """Peak RSS of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def check_outputs(cases, first, outputs) -> list[str]:
    """Run every independent check on the untimed round's outcomes and outputs."""
    import jsonschema
    from numlaws import extract

    import checks
    from workloads import KNOWN_FAULTS, load_report

    problems = []
    failed = {label for label, outcome in first.items() if outcome[0] == "failed"}
    known = KNOWN_FAULTS & first.keys()
    try:
        checks.check_failures(failed, known)
    except checks.CheckFailed as exc:
        problems.append(str(exc))
    for label in sorted(known - failed):
        print(f"  known fault no longer fails: {label}; take it out of "
              f"workloads.KNOWN_FAULTS", file=sys.stderr)

    validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text(encoding="utf-8")))
    for case in cases:
        output = outputs[case.label]
        if output is None:
            continue
        try:
            for label, path in case.paths.items():
                checks.check_extraction(extract.read_text_corpus(path).values,
                                        case.planted[label])
            report = load_report(output)
            if report is not None:
                checks.check_report(report, case.planted, validator, case.years or None)
        except checks.CheckFailed as exc:
            problems.append(f"{case.label}: {exc}")
    return problems


def run_workload(args) -> dict:
    import numlaws

    import checks
    import tracing
    from workloads import WORKLOADS

    if not Path(numlaws.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"numlaws was imported from {numlaws.__file__}, not from {SRC}")
    setup_s = None if args.trace else measure_setup()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        cases = WORKLOADS[args.workload](args.seed, workdir)
        harness_mb = rss_mb()
        first, outputs = {}, {}
        for case in cases:
            _, first[case.label], outputs[case.label] = attempt(case)

        problems = []
        tracer = tracing.Tracer() if args.trace else None
        times = {case.label: [] for case in cases}
        attempted = failed = rounds = 0
        start = perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            while rounds < MIN_ROUNDS or perf_counter() - start < args.seconds:
                for case in cases:
                    with tracer.analysis(case.label) if tracer else contextlib.nullcontext():
                        elapsed, outcome, _ = attempt(case)
                    times[case.label].append(elapsed)
                    attempted += 1
                    failed += outcome[0] == "failed"
                    try:
                        checks.check_repeatable(first[case.label], outcome, case.label)
                    except checks.CheckFailed as exc:
                        problems.append(str(exc))
                rounds += 1
        # read before the checks, which parse reports and re-extract inputs
        peak_mb = rss_mb()
        problems += check_outputs(cases, first, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = [t for ts in times.values() for t in ts]
    p50 = statistics.median(samples)
    print(f"{args.workload}: {len(cases)} analyses x {rounds} timed rounds, "
          f"{failed} of {attempted} failed", file=sys.stderr)
    for label, outcome in first.items():
        if outcome[0] == "failed":
            print(f"  failed every time: {label}: {outcome[1][:160]}", file=sys.stderr)
    for problem in problems:
        print(f"  CHECK FAILED {problem}", file=sys.stderr)
    print(f"  peak RSS {harness_mb:.1f} MB before the first analysis, "
          f"{peak_mb:.1f} MB after the timed rounds", file=sys.stderr)

    if tracer:
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.json")
        print(f"  analysis p50 with tracing on: {p50!r} s", file=sys.stderr)
        metrics = {name: {"value": value, "unit": tracing.LAYER_METRICS[name][0]}
                   for name, value in tracer.layer_metrics().items()}
    else:
        n_values = sum(case.n_values * len(times[case.label]) for case in cases)
        values = {
            "setup_s": setup_s,
            "analysis_p50_s": p50,
            "analysis_worst_s": max(statistics.median(ts) for ts in times.values()),
            "values_per_s": n_values / sum(samples),
            "peak_rss_mb": peak_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload, each in its own process; one JSON line keyed by workload."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # before numpy is first imported, in this process and in its children
    for var in THREAD_VARS:
        os.environ[var] = "1"
    missing = [str(p) for p in (SRC / "numlaws" / "__init__.py", FIXTURE, SCHEMA)
               if not p.is_file()]
    if missing:
        print(f"not a numlaws source checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
