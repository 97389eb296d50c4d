#!/usr/bin/env python3
"""Compare two revisions on benchmark workloads in alternating pairs.

    python3 tools/bench_pairs.py --base REV --head REV --workload bulk \\
        --pairs 5 --seed 300 [--seconds 10] [--fresh-copies] > BENCH_<n>.json

``--workload`` names one workload, a comma-separated list of them, or
``all``.  Each revision is exported with ``git archive`` into a temporary
directory outside the repository, and that copy's own
``perfbench/run.py --trace 0`` runs in a fresh process.  Pair i runs
every named workload, in the order given, on both sides on seed S + i:
the base first in even pairs and the head first in odd ones (ABBA), so a
drift of the machine over the runs does not favour one side.  With
``--fresh-copies`` every run gets a newly extracted copy, which shows how
much a metric moves between copies of the same files.

Only the last line ``run.py`` prints is read.  Nothing in either copy or
in this repository is edited; environment variables are set for the
child processes only (``PYTHONPATH`` is dropped, so each run imports its
own copy).  The JSON written to standard output holds both revisions
with each one's ``src/numlaws`` line count, the machine, the environment
variables that move timings, every run's metrics, and per metric each
side's median and quartiles and in how many pairs the head was better,
per workload.  Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCHEMA = "numlaws-bench-pairs/3"
SIDES = ("base", "head")
WORKLOADS = ("statements", "bulk", "tiny")
# variables that change what a run measures: byte-code caching, thread
# counts, CPU dispatch and the allocator
TIMING_VARS = (
    "PYTHONDONTWRITEBYTECODE",
    "PYTHONPYCACHEPREFIX",
    "PYTHONHASHSEED",
    "PYTHONMALLOC",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "OPENBLAS_CORETYPE",
    "NPY_DISABLE_CPU_FEATURES",
    "MALLOC_ARENA_MAX",
)


def parse_workloads(arg: str) -> list[str]:
    """``all``, or a comma-separated list of workload names, as a list."""
    names = list(WORKLOADS) if arg == "all" else arg.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or len(set(names)) != len(names):
        raise ValueError(f"--workload takes 'all' or distinct names from {', '.join(WORKLOADS)}")
    return names


def schedule(pairs: int, workloads: list[str]) -> list[tuple[int, str, int, str]]:
    """Every run as (pair, workload, order, side): each pair runs each
    workload on both sides, the base first in even pairs (ABBA)."""
    return [
        (pair, workload, order, side)
        for pair in range(pairs)
        for workload in workloads
        for order, side in enumerate(SIDES if pair % 2 == 0 else SIDES[::-1])
    ]


def parse_run_line(stdout: str) -> dict:
    """The result ``run.py`` prints as its last line, flattened to
    ``{"correct", "attempted", "failed", "metrics": {name: value}}``."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarize(runs: list[dict], better: dict) -> dict:
    """Per metric, each side's median and quartiles over its completed
    runs, and in how many complete pairs the head was better.

    ``runs`` are records with ``pair``, ``side`` and, for a completed run,
    ``metrics``; ``better`` maps each metric to "lower" or "higher".
    """
    done = [r for r in runs if "metrics" in r]
    by_pair = {}
    for run in done:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    pairs = [sides for sides in by_pair.values() if len(sides) == 2]
    summary = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        entry = {"better": direction}
        for side in SIDES:
            values = sorted(r["metrics"][name] for r in done if r["side"] == side)
            entry[f"{side}_median"] = statistics.median(values) if values else None
            entry[f"{side}_quartiles"] = (
                statistics.quantiles(values, n=4)[::2] if len(values) > 1 else None
            )
        entry["relative_change"] = (
            entry["head_median"] / entry["base_median"] - 1 if entry["base_median"] else None
        )
        wins = sum(sign * (p["head"][name] - p["base"][name]) < 0 for p in pairs)
        entry["head_better_in"] = f"{wins} of {len(pairs)}"
        summary[name] = entry
    return summary


def summarize_workloads(runs: list[dict], better: dict) -> dict:
    """``summarize`` over each workload's runs, keyed by workload in the
    order the runs name them."""
    workloads = dict.fromkeys(run["workload"] for run in runs)
    return {w: summarize([r for r in runs if r["workload"] == w], better) for w in workloads}


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def resolve(rev: str) -> str:
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=REPO, check=True, capture_output=True, text=True,
    ).stdout.strip()


def export(archive: bytes, into: Path) -> Path:
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def src_lines(copy: Path) -> int:
    """The lines of a copy's ``src/numlaws/*.py``, counted as
    ``cat src/numlaws/*.py | wc -l`` counts them: by line breaks."""
    return sum(path.read_bytes().count(b"\n") for path in (copy / "src" / "numlaws").glob("*.py"))


def child_environment() -> dict:
    """This process's environment without ``PYTHONPATH``, so that each run
    imports numlaws from its own copy."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=copy, env=child_environment(), capture_output=True,
                          text=True, timeout=1800)
    try:
        return {"returncode": proc.returncode, **parse_run_line(proc.stdout)}
    except (ValueError, KeyError) as exc:
        return {"returncode": proc.returncode, "error": f"{type(exc).__name__}: {exc}",
                "stderr_tail": proc.stderr[-2000:]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list of them, or 'all'")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--fresh-copies", action="store_true")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0 or args.seconds <= 0:
        parser.error("--pairs must be >= 1, --seed >= 0 and --seconds > 0")
    try:
        workloads = parse_workloads(args.workload)
    except ValueError as exc:
        parser.error(str(exc))

    commits = {side: resolve(getattr(args, side)) for side in SIDES}
    archives = {
        side: subprocess.run(["git", "archive", commit], cwd=REPO, check=True,
                             capture_output=True).stdout
        for side, commit in commits.items()
    }
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tmp = Path(tmp)
        copies = {side: export(archives[side], tmp / side) for side in SIDES}
        lines = {side: src_lines(copies[side]) for side in SIDES}
        better = {
            m["name"]: m["better"]
            for m in json.loads((copies["head"] / "BENCHMARK.json").read_text())["end_to_end"]
        }
        for pair, workload, order, side in schedule(args.pairs, workloads):
            seed = args.seed + pair
            copy = copies[side]
            if args.fresh_copies:
                copy = export(archives[side], tmp / f"{side}-{pair}")
            result = run_once(copy, workload, seed, args.seconds)
            if args.fresh_copies:
                shutil.rmtree(copy)
            runs.append({"pair": pair, "workload": workload, "order": order, "side": side,
                         "seed": seed, **result})
            shown = result.get("metrics", result.get("error"))
            print(f"pair {pair} {workload} {side}: {shown}", file=sys.stderr)

    print(json.dumps({
        "schema": SCHEMA,
        **{side: {"rev": getattr(args, side), "commit": commits[side], "src_lines": lines[side]}
           for side in SIDES},
        "workloads": workloads,
        "command": "python3 perfbench/run.py --workload <workload> "
                   f"--seed <seed + pair> --seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "seed": args.seed,
        "fresh_copies": args.fresh_copies,
        "machine": machine(),
        "environment": {var: child_environment().get(var) for var in TIMING_VARS},
        "runs": runs,
        "correct_in_every_run": all(r.get("correct") for r in runs),
        "failed": {
            workload: {side: sum(r.get("failed", 0) for r in runs
                                 if (r["workload"], r["side"]) == (workload, side))
                       for side in SIDES}
            for workload in workloads
        },
        "summary": summarize_workloads(runs, better),
    }, indent=1))
    return 0 if all("metrics" in r for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
