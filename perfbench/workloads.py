"""Seeded inputs and the analyses each workload runs.

The generators here are the benchmark's own: they never call
``numlaws.synth``, so a change to the program cannot change a workload.
Every generator records the integers it planted, in document order, so
that the checks can recompute every count from them.

A workload is a list of ``Case`` objects.  ``Case.run`` is the timed
analysis; ``Case.collect`` turns its result into the output bytes that
are hashed and checked, outside the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import numlaws
from numlaws import cli, extract, pipeline

THIN_SPACE = " "
NARROW_NBSP = " "

# odd, so that the median analysis is one company's, not the mean of two
N_COMPANIES = 3
YEARS = (2015, 2016, 2017, 2018, 2019)

BULK_VALUES = 1_000_000
BULK_POOL = 20_000
# integers formatted per write, so the text never sits in memory whole
BULK_CHUNK = 50_000
# one rank exponent per bulk corpus: how steeply repeats concentrate
BULK_EXPONENTS = (0.9, 1.0, 1.1)

TINY_PLAN_SEED = 0
# with the 7 fixed and 2 fault corpora, 17: an odd number, so that the
# median analysis is one corpus's, and a round takes about 11 s
TINY_RANDOM_CORPORA = 8


class AnalysisFailed(Exception):
    """An analysis ended without a report, other than by a NumlawsError."""


@dataclass
class Case:
    """One analysis: what was planted for it, and how to run it."""

    label: str
    n_values: int
    planted: dict  # corpus label -> planted ints (list or array), in document order
    run: Callable[[], object]  # the timed analysis
    collect: Callable[[object], dict]  # its result -> output bytes by file name
    years: dict = field(default_factory=dict)  # corpus label -> year
    paths: dict = field(default_factory=dict)  # corpus label -> input file


def _report_bytes(text: str) -> dict:
    return {"report.json": text.encode("utf-8")}


def _dir_bytes(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# Module attributes are looked up at call time, so that the tracer's
# wrappers are the functions called.

def _analyze_file(path: Path) -> str:
    corpus = extract.read_text_corpus(path)
    report = pipeline.build_report(corpus, pipeline.AnalysisConfig(cutoff=True))
    return pipeline.report_to_json(report)


def _analyze_values(label: str, values: list) -> str:
    try:
        corpus = numlaws.NumberCorpus(label=label, values=values)
        report = pipeline.build_report(corpus, pipeline.AnalysisConfig(cutoff=True))
        return pipeline.report_to_json(report)
    except numlaws.errors.NumlawsError as exc:
        # a typed refusal is a handled outcome, not a failed analysis
        return f"NumlawsError {type(exc).__name__}: {exc}\n"


def _cli_analysis(paths: dict, years: dict, out_root: Path) -> Callable[[], Path]:
    labels = sorted(paths)
    attempts = itertools.count(1)

    def analyze() -> Path:
        # a fresh directory per attempt: rewriting the files of the attempt
        # before would wait for their write-back, which times the disk
        out_dir = out_root / f"{next(attempts):04d}"
        argv = ["analyze", "--input", *(str(paths[k]) for k in labels),
                "--cutoff", "--format", "both", "--out-dir", str(out_dir),
                "--year-map", ",".join(f"{k}={years[k]}" for k in labels)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise AnalysisFailed(f"numlaws analyze exited with {code}")
        return out_dir

    return analyze


# ------------------------------------------------------------------ seeding


def redraw_tails(values, rng: random.Random) -> dict:
    """Map each distinct value to a random one with its first digit and length.

    Distinct values stay distinct, so the first-digit, length and
    rank-frequency counts are those of the plan the values came from.
    """
    groups = defaultdict(list)
    mapping = {}
    for value in sorted(set(values)):
        length = len(str(value))
        if length == 1:
            mapping[value] = value
        else:
            groups[(value // 10 ** (length - 1), length)].append(value)
    for (digit, length), group in groups.items():
        for value, tail in zip(group, rng.sample(range(10 ** (length - 1)), len(group))):
            mapping[value] = digit * 10 ** (length - 1) + tail
    return mapping


# ---------------------------------------------------------------- statements

_SYLLABLES = ("ar", "bel", "cor", "dan", "el", "fir", "gal", "hor", "is", "kel",
              "lun", "mor", "nor", "ost", "pra", "quin", "ros", "sel", "tor", "van")
_LINE_ITEMS = (
    "Revenue from sale of properties", "Rental income", "Property management fees",
    "Cost of sales", "Land appreciation tax", "Selling and distribution expenses",
    "Administrative expenses", "Finance costs", "Share of profits of associates",
    "Income tax expense", "Investment properties", "Properties under development",
    "Completed properties held for sale", "Trade receivables", "Prepayments",
    "Restricted cash", "Cash and cash equivalents", "Bank borrowings",
    "Senior notes", "Contract liabilities", "Trade and bills payables",
    "Deferred tax liabilities", "Share capital", "Retained earnings",
    "Non-controlling interests", "Gross floor area delivered", "Land bank",
    "Number of projects", "Number of employees", "Dividends paid",
)
_SECTIONS = ("Consolidated statement of profit or loss",
             "Consolidated statement of financial position",
             "Consolidated statement of cash flows",
             "Notes to the financial statements",
             "Segment information", "Five-year operating summary")
# tokens the extractor must drop: decimals and footnote-marked digit runs
_DISTRACTORS = ("margin of 23.5 percent", "earnings per share of 0.08",
                "a ratio of 1.27", "valued at 1,234.56", "see 77* below",
                "audited 1,204†", "restated 15¹", "item 8^ only",
                "yield 4.75 on average", "adjusted 2,345‡")


def _plan_company(slot: int) -> list[list]:
    """Records of one company's five statements, from the slot's fixed plan.

    A record is (kind, line, planted integers): a "section" heading, an
    "item" with its note number, current and prior amounts, a repeated
    "total", or a "distractor" that plants nothing.
    """
    plan = random.Random(slot)
    scale = 10 ** plan.uniform(7.0, 9.5)
    # line items spread over many magnitudes, as statements do
    base = [max(1, int(scale * 10 ** -plan.uniform(0.0, 7.0)))
            for _ in range(plan.randint(400, 600))]
    prior = [max(1, int(v * plan.uniform(0.8, 1.0))) for v in base]
    n_target = 2500 + 250 * slot
    years, growth = [], 1.0
    for _ in YEARS:
        growth *= plan.uniform(0.95, 1.15)
        current = [max(1, int(v * growth * plan.lognormvariate(0.0, 0.08))) for v in base]
        # totals that a statement repeats in its summary, notes and segments
        key_totals = current[:24]
        records, planted = [], 0
        while planted < n_target:
            records.append(("section", 0, ()))
            for _ in range(plan.randint(8, 16)):
                line = plan.randrange(len(current))
                records.append(("item", line, (plan.randint(1, 40), current[line], prior[line])))
                planted += 3
                roll = plan.random()
                if roll < 0.35:
                    records.append(("total", 0, (plan.choice(key_totals),)))
                    planted += 1
                elif roll < 0.55:
                    records.append(("distractor", 0, ()))
        years.append(records)
        prior = current
    return years


def _format_amount(value: int, rng: random.Random) -> str:
    digits = str(value)
    if value >= 1000:
        style = rng.random()
        if style < 0.5:
            digits = f"{value:,}"
        elif style < 0.65:
            digits = f"{value:,}".replace(",", THIN_SPACE)
        elif style < 0.75:
            digits = f"{value:,}".replace(",", NARROW_NBSP)
    sign = rng.random()
    if sign < 0.10:
        return f"({digits})"
    if sign < 0.15:
        return f"-{digits}"
    return digits


def _render_statement(records, name, remap, rng) -> tuple[str, list[int]]:
    """Statement text for one year's records, and the integers planted in it."""
    lines = [f"{name.title()} Holdings annual results (amounts in thousands)"]
    planted: list[int] = []
    for kind, line, values in records:
        values = [remap[v] for v in values]
        if kind == "section":
            lines.append(rng.choice(_SECTIONS))
        elif kind == "item":
            note, current, prior = values
            lines.append(f"{_LINE_ITEMS[line % len(_LINE_ITEMS)]} (note {note}): "
                         f"{_format_amount(current, rng)} against "
                         f"{_format_amount(prior, rng)} in the prior year;")
        elif kind == "total":
            lines.append(f"as reported above, the total of {_format_amount(values[0], rng)} "
                         "is carried forward.")
        else:
            lines.append(f"Management notes {rng.choice(_DISTRACTORS)} for this line.")
        planted += values
    return "\n".join(lines) + "\n", planted


def statements(seed: int, workdir: Path) -> list[Case]:
    """A few companies, each one CLI analysis over five fiscal years."""
    rng = random.Random(seed)
    cases = []
    for slot in range(N_COMPANIES):
        years = _plan_company(slot)
        remap = redraw_tails([v for records in years for r in records for v in r[2]], rng)
        name = "".join(rng.choice(_SYLLABLES) for _ in range(3)) + "abc"[slot]
        case_dir = workdir / name
        case_dir.mkdir(parents=True)
        paths, planted, year_of = {}, {}, {}
        for year, records in zip(YEARS, years):
            text, planted_in_year = _render_statement(records, name, remap, rng)
            stem = f"{name}_{year}"
            paths[stem] = case_dir / f"{stem}.txt"
            paths[stem].write_text(text, encoding="utf-8")
            planted[stem] = planted_in_year
            year_of[stem] = year
        cases.append(Case(label=name, n_values=sum(map(len, planted.values())),
                          planted=planted, years=year_of, paths=paths,
                          run=_cli_analysis(paths, year_of, case_dir / "out"),
                          collect=_dir_bytes))
    return cases


# ---------------------------------------------------------------------- bulk


def bulk(seed: int, workdir: Path) -> list[Case]:
    """Newline-delimited corpora of a million integers over a wide range.

    The planted integers go to a ``.npy`` file next to each corpus and
    are mapped back read-only, so they take no memory until the checks
    read them: the process's peak RSS is numlaws', not the generator's.
    """
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    cases = []
    for slot, exponent in enumerate(BULK_EXPONENTS):
        plan = np.random.default_rng(slot)
        candidates = np.unique(np.floor(10 ** plan.uniform(0.0, 12.0, 3 * BULK_POOL)))
        pool = plan.permutation(candidates)[:BULK_POOL].astype(np.int64).tolist()
        weights = 1.0 / np.arange(1, BULK_POOL + 1) ** exponent
        index = plan.choice(BULK_POOL, size=BULK_VALUES, p=weights / weights.sum())
        remap = redraw_tails(pool, rng)
        values = np.array([remap[v] for v in pool], dtype=np.int64)[index]
        del index
        label = f"bulk{slot}"
        path = workdir / f"{label}.txt"
        with path.open("w", encoding="ascii") as out:
            for start in range(0, BULK_VALUES, BULK_CHUNK):
                out.write("\n".join(map(str, values[start:start + BULK_CHUNK].tolist())) + "\n")
        np.save(workdir / f"{label}.npy", values)
        del values
        planted = np.load(workdir / f"{label}.npy", mmap_mode="r")
        cases.append(Case(label=label, n_values=BULK_VALUES, planted={label: planted},
                          paths={label: path}, run=functools.partial(_analyze_file, path),
                          collect=_report_bytes))
    return cases


# ---------------------------------------------------------------------- tiny

# fault (a): cutoff.gamma_update overflows on this corpus with cutoff on
FAULT_A = [0] * 80 + [1] * 85 + [10] * 69 + [100] * 66
# fault (b): the digit Gamma fit's curve overflows to inf in GammaModel.weights
FAULT_B = [1871, 7545922990646895, 7988261716587219, 5804477, 843190,
           7067808913916, 400089832]
# the analyses that fail every time today; any other failure is a finding
KNOWN_FAULTS = frozenset({"fault_a_overflow", "fault_b_nonfinite"})


def _random_corpus(plan: random.Random) -> list[int]:
    """3-12 values of lengths 1-18, some zero, some repeated."""
    values: list[int] = []
    target = plan.randint(3, 12)
    while len(values) < target:
        if plan.random() < 0.1:
            value = 0
        else:
            length = plan.randint(1, 18)
            value = plan.randint(1, 9) * 10 ** (length - 1) + plan.randrange(10 ** (length - 1))
        values += [value] * min(plan.choice((1, 1, 1, 2, 3)), target - len(values))
    return values


def _tiny_plan() -> list[tuple[str, list[int]]]:
    plan = random.Random(TINY_PLAN_SEED)
    corpora = [(f"random{i:02d}", _random_corpus(plan)) for i in range(TINY_RANDOM_CORPORA)]
    corpora += [
        ("constant_1digit", [7] * 5),
        ("constant_6digit", [400000] * 8),
        ("constant_18digit", [9 * 10**17] * 12),
        ("single_digit_spread", list(range(1, 10))),
        ("single_digit_with_zeros", [0] * 4 + [1] * 3 + [2] * 2 + [5]),
        ("single_digit_pair", [3, 3, 8]),
        ("lengths_9_10_16", [10**8, 10**9, 10**15]),
    ]
    return corpora


def tiny_case(label: str, values: list) -> Case:
    """One build_report of the given integers."""
    return Case(label=label, n_values=len(values), planted={label: values},
                run=functools.partial(_analyze_values, label, values),
                collect=_report_bytes)


def tiny(seed: int, workdir: Path) -> list[Case]:
    """Seventeen tiny or degenerate corpora, one build_report each."""
    rng = random.Random(seed)
    cases = []
    for label, plan_values in _tiny_plan():
        remap = redraw_tails(plan_values, rng)
        cases.append(tiny_case(label, [remap[v] for v in plan_values]))
    # the two known faults keep their exact inputs under every seed
    for label, values in (("fault_a_overflow", FAULT_A), ("fault_b_nonfinite", FAULT_B)):
        cases.append(tiny_case(label, list(values)))
    return cases


WORKLOADS = {"statements": statements, "bulk": bulk, "tiny": tiny}


def load_report(output: dict) -> dict | None:
    """Parsed report.json of a collected output, or None for a typed refusal."""
    raw = output["report.json"]
    if raw.startswith(b"NumlawsError"):
        return None
    return json.loads(raw)
