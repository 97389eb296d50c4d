#!/usr/bin/env python3
"""Compare the output bytes of two revisions on the benchmark workloads.

    python3 tools/output_digests.py --base REV --head REV --workload all --seed 7

``--workload`` names one workload, a comma-separated list of them, or
``all``.  Each revision is exported with ``git archive`` into a temporary
directory outside the repository, as ``tools/bench_pairs.py`` does.  In
each copy a child process imports that copy's ``src`` and
``perfbench/workloads.py``, runs every case of the named workloads once
at the seed, in a temporary directory, and hashes with SHA-256 each file
the case's ``collect`` returns, named ``<workload>/<case>/<file>``.  A
case whose analysis raises has no files; the type and message of its
error are hashed under ``<workload>/<case>/error`` instead.

The JSON written to standard output lists the names whose digests are
the same on both sides, those that changed, and those that only one side
wrote.  The exit status is 1 if any file differs, 0 otherwise.  Nothing
in either copy or in this repository is edited.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import REPO, SIDES, child_environment, export, parse_workloads, resolve

SCHEMA = "numlaws-output-digests/1"


def compare(base: dict, head: dict) -> dict:
    """Names of equal, changed, base-only and head-only digests, each sorted."""
    shared = base.keys() & head.keys()
    return {
        "same": sorted(name for name in shared if base[name] == head[name]),
        "changed": sorted(name for name in shared if base[name] != head[name]),
        "base_only": sorted(base.keys() - head.keys()),
        "head_only": sorted(head.keys() - base.keys()),
    }


def differs(comparison: dict) -> bool:
    return any(comparison[key] for key in ("changed", "base_only", "head_only"))


def collect_digests(workloads: list[str], seed: int) -> dict:
    """Digests of every case's output, run in the checkout that is the
    working directory; called in the child process."""
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numlaws
    from workloads import WORKLOADS

    if not Path(numlaws.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"numlaws was imported from {numlaws.__file__}, not from {root}")
    digests = {}
    for workload in workloads:
        with tempfile.TemporaryDirectory(prefix=f"output-digests-{workload}-") as tmp:
            for case in WORKLOADS[workload](seed, Path(tmp) / "work"):
                prefix = f"{workload}/{case.label}/"
                try:
                    output = case.collect(case.run())
                except Exception as exc:  # a failing case is an outcome to compare
                    output = {"error": f"{type(exc).__name__}: {exc}".encode()}
                for name, data in output.items():
                    digests[prefix + name] = hashlib.sha256(data).hexdigest()
    return digests


def digests_of(copy: Path, workloads: list[str], seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--collect",
           "--workload", ",".join(workloads), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=copy, env=child_environment(), capture_output=True,
                          text=True, timeout=1800)
    if proc.returncode != 0:
        raise SystemExit(f"collecting digests in {copy} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base")
    parser.add_argument("--head")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list of them, or 'all'")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        workloads = parse_workloads(args.workload)
    except ValueError as exc:
        parser.error(str(exc))
    if args.collect:
        print(json.dumps(collect_digests(workloads, args.seed)))
        return 0
    if not (args.base and args.head):
        parser.error("--base and --head are required")

    commits = {side: resolve(getattr(args, side)) for side in SIDES}
    digests = {}
    with tempfile.TemporaryDirectory(prefix="output-digests-") as tmp:
        for side, commit in commits.items():
            archive = subprocess.run(["git", "archive", commit], cwd=REPO,
                                     check=True, capture_output=True).stdout
            copy = export(archive, Path(tmp) / side)
            print(f"{side} {commit[:12]}: running {', '.join(workloads)}", file=sys.stderr)
            digests[side] = digests_of(copy, workloads, args.seed)
    comparison = compare(digests["base"], digests["head"])
    print(json.dumps({
        "schema": SCHEMA,
        **{side: {"rev": getattr(args, side), "commit": commits[side]} for side in SIDES},
        "workloads": workloads,
        "seed": args.seed,
        **comparison,
    }, indent=1))
    return 1 if differs(comparison) else 0


if __name__ == "__main__":
    sys.exit(main())
