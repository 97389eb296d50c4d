"""Command-line surface: stats, analyze, synth and cutoff subcommands.

Exit codes: 0 on success (including failing conformity verdicts, which
are data news rather than tool failure), 2 on input/ingest errors, 64 on
usage errors.  Human-readable summaries round to 5 significant digits;
JSON output keeps full precision.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .corpus import corpus_stats
from .errors import IngestError, NumlawsError
from .extract import ExtractionRules, read_csv_corpus, read_text_corpus
from .fitting import fit_gamma, fit_zipf
from .pipeline import (
    DIMENSIONS,
    AnalysisConfig,
    build_report,
    report_to_json,
    share_scale_cutoff,
    write_plot_bundles,
)
from .synth import sample_benford_digits, sample_gamma_lengths, sample_zipf_values

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage errors on exit code 64."""

    def error(self, message):
        raise UsageError(message)


def _sig5(x) -> str:
    return f"{x:.5g}"


def _load_corpus(path: str, csv_column, rules: ExtractionRules, year=None):
    path = Path(path)
    if csv_column is not None or path.suffix.lower() == ".csv":
        column = csv_column if csv_column is not None else 0
        return read_csv_corpus(path, column, rules, year=year)
    return read_text_corpus(path, rules, year=year)


def _dimension_name(name: str) -> str:
    """Accept the short ``digit`` spelling for the first-digit dimension."""
    return "first_digit" if name == "digit" else name


def _parse_year_map(spec: str | None) -> dict[str, int]:
    if not spec:
        return {}
    mapping = {}
    for item in spec.split(","):
        if "=" not in item:
            raise UsageError(f"--year-map entries must look like name=year: {item!r}")
        name, _, year = item.partition("=")
        try:
            mapping[name.strip()] = int(year)
        except ValueError:
            raise UsageError(f"--year-map year is not an integer: {year!r}") from None
    return mapping


def cmd_stats(args) -> int:
    corpus = _load_corpus(args.input, args.csv_column, ExtractionRules())
    stats = corpus_stats(corpus)
    print(json.dumps(stats.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_analyze(args) -> int:
    analyses = AnalysisConfig().analyses
    if args.analyses:
        analyses = tuple(_dimension_name(a) for a in args.analyses.split(","))
    try:
        config = AnalysisConfig(analyses=analyses, cutoff=args.cutoff)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    year_map = _parse_year_map(args.year_map)
    corpora = []
    names = []
    for path in args.input:
        stem = Path(path).stem
        year = year_map.get(stem, year_map.get(Path(path).name))
        corpora.append(_load_corpus(path, args.csv_column, config.rules, year=year))
        names.append(Path(path).name)
    report = build_report(corpora, config, inputs=names)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if args.format in ("json", "both"):
        report_path = out_dir / "report.json"
        report_path.write_text(report_to_json(report), encoding="utf-8")
        written.append(report_path)
    if args.format in ("csv", "both"):
        written.extend(write_plot_bundles(report, out_dir))

    for analysis in report.corpora:
        for dimension in sorted(analysis.sections):
            section = analysis.sections[dimension]
            for model_name in sorted(section.fits):
                fit = section.fits[model_name]
                print(
                    f"{analysis.label} {dimension} {model_name}: "
                    f"R2={_sig5(fit.scores.r_squared)} KL={_sig5(fit.scores.kl)} "
                    f"JS={_sig5(fit.scores.js)} MAPE={_sig5(fit.scores.mape)} "
                    f"[{fit.verdict.r_squared}]"
                )
    for anomaly in report.anomalies:
        print(f"anomaly: {anomaly['kind']}: {anomaly['detail']}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


# the flags each synth model takes, by argparse destination, each with the
# least value it accepts (None: any value)
_SYNTH_FLAGS = {
    "benford": {},
    "zipf": {"alpha": 0, "support_size": 2},
    "gamma": {"rate": 0, "shape": None, "max_length": 1},
}


def _flag_list(names) -> str:
    """``--a``, ``--a and --b`` or ``--a, --b and --c``."""
    flags = ["--" + name.replace("_", "-") for name in names]
    if len(flags) == 1:
        return flags[0]
    return ", ".join(flags[:-1]) + " and " + flags[-1]


def _synth_params(args):
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be a non-negative integer")
    takes = _SYNTH_FLAGS[args.model]
    foreign = [
        name
        for flags in _SYNTH_FLAGS.values()
        for name in flags
        if name not in takes and getattr(args, name) is not None
    ]
    if foreign:
        raise UsageError(f"{args.model} model takes no {_flag_list(foreign)}")
    params = {name: getattr(args, name) for name in takes}
    if None in params.values():
        raise UsageError(f"{args.model} model needs {_flag_list(takes)}")
    for name, least in takes.items():
        if not math.isfinite(params[name]):
            raise UsageError(f"{_flag_list([name])} must be a finite number")
        if least is not None and params[name] < least:
            raise UsageError(f"{_flag_list([name])} must be >= {least}")
    return params


def cmd_synth(args) -> int:
    params = _synth_params(args)
    if args.model == "benford":
        values = sample_benford_digits(args.n, args.seed)
    elif args.model == "zipf":
        corpus = sample_zipf_values(args.n, seed=args.seed, **params)
        values = corpus.values
    else:
        values = sample_gamma_lengths(args.n, seed=args.seed, **params)

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(str(int(v)) for v in values) + "\n", encoding="utf-8")
    sidecar = out.with_suffix(out.suffix + ".meta.json")
    sidecar.write_text(
        json.dumps(
            {"model": args.model, "params": params, "n": args.n, "seed": args.seed},
            sort_keys=True,
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {out} ({args.n} values) and {sidecar}")
    return EXIT_OK


def cmd_cutoff(args) -> int:
    corpus = _load_corpus(args.input, args.csv_column, ExtractionRules())
    dimension = _dimension_name(args.dimension)
    view = DIMENSIONS[dimension].view.from_corpus(corpus)
    fit = fit_zipf(view) if args.system == "zipf" else fit_gamma(view)
    estimate = share_scale_cutoff(view, fit)
    payload = estimate.to_dict()
    payload["dimension"] = dimension
    payload["system"] = args.system
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="numlaws", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="corpus summary statistics as JSON")
    p_stats.add_argument("--input", required=True)
    p_stats.add_argument("--csv-column", default=None)
    p_stats.set_defaults(func=cmd_stats)

    p_an = sub.add_parser("analyze", help="full conformity report")
    p_an.add_argument("--input", required=True, nargs="+")
    p_an.add_argument("--csv-column", default=None)
    p_an.add_argument(
        "--analyses",
        default=None,
        help=f"comma-separated subset of {','.join(DIMENSIONS)} (or digit)",
    )
    p_an.add_argument("--cutoff", action="store_true", help="estimate usage boundaries")
    p_an.add_argument("--out-dir", default=".")
    p_an.add_argument("--format", choices=("json", "csv", "both"), default="json")
    p_an.add_argument("--year-map", default=None, help="name=year[,name=year...]")
    p_an.set_defaults(func=cmd_analyze)

    p_sy = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p_sy.add_argument("--model", required=True, choices=("benford", "zipf", "gamma"))
    p_sy.add_argument("--n", required=True, type=int)
    p_sy.add_argument("--seed", required=True, type=int)
    p_sy.add_argument("--output", required=True)
    p_sy.add_argument("--alpha", type=float, default=None)
    p_sy.add_argument("--support-size", type=int, default=None)
    p_sy.add_argument("--rate", type=float, default=None)
    p_sy.add_argument("--shape", type=float, default=None)
    p_sy.add_argument("--max-length", type=int, default=None)
    p_sy.set_defaults(func=cmd_synth)

    p_cut = sub.add_parser("cutoff", help="upper-cutoff estimate for one dimension")
    p_cut.add_argument("--input", required=True)
    p_cut.add_argument("--csv-column", default=None)
    p_cut.add_argument(
        "--dimension", required=True, choices=("digit", *DIMENSIONS)
    )
    p_cut.add_argument("--system", required=True, choices=("gamma", "zipf"))
    p_cut.set_defaults(func=cmd_cutoff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IngestError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumlawsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
