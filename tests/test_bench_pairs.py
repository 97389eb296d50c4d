"""The summarizer of ``tools/bench_pairs.py``, on recorded ``run.py`` lines;
no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"analysis_p50_s": "lower", "values_per_s": "higher", "peak_rss_mb": "lower"}


def run_line(p50, values_per_s, rss, correct=True, failed=0):
    """One last line of ``run.py --trace 0``, as it prints it."""
    metrics = {
        "analysis_p50_s": {"value": p50, "unit": "s"},
        "values_per_s": {"value": values_per_s, "unit": "values/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return json.dumps({"correct": correct, "attempted": 30, "failed": failed,
                       "metrics": metrics})


# (pair, side, line); the head runs first in odd pairs
RECORDED = [
    (0, "base", run_line(0.50, 2.0e6, 114.0)),
    (0, "head", run_line(0.40, 2.5e6, 115.0)),
    (1, "head", run_line(0.42, 2.4e6, 113.0)),
    (1, "base", run_line(0.52, 1.9e6, 114.5)),
    (2, "base", run_line(0.48, 2.1e6, 113.5)),
    (2, "head", run_line(0.49, 2.0e6, 113.0)),
]


def recorded_runs():
    return [{"pair": pair, "side": side, **bench_pairs.parse_run_line(f"progress\n{line}\n")}
            for pair, side, line in RECORDED]


def test_parse_reads_the_last_line_only():
    run = bench_pairs.parse_run_line("a line before\n" + run_line(0.5, 2.0e6, 114.0, False, 2))
    assert run == {
        "correct": False,
        "attempted": 30,
        "failed": 2,
        "metrics": {"analysis_p50_s": 0.5, "values_per_s": 2.0e6, "peak_rss_mb": 114.0},
    }
    with pytest.raises(ValueError):
        bench_pairs.parse_run_line("\n")


def test_summary_medians_and_pair_wins():
    summary = bench_pairs.summarize(recorded_runs(), BETTER)
    p50 = summary["analysis_p50_s"]
    assert (p50["base_median"], p50["head_median"]) == (0.50, 0.42)
    assert p50["relative_change"] == pytest.approx(0.42 / 0.50 - 1)
    assert p50["head_better_in"] == "2 of 3"
    # higher is better: the head wins where its rate is above the base's
    assert summary["values_per_s"]["head_better_in"] == "2 of 3"
    assert summary["values_per_s"]["head_median"] == 2.4e6
    assert summary["peak_rss_mb"]["head_better_in"] == "2 of 3"
    assert p50["base_quartiles"] == pytest.approx([0.48, 0.52])


def test_a_run_without_result_leaves_its_pair_out():
    runs = recorded_runs()
    runs[5] = {"pair": 2, "side": "head", "returncode": 1,
               "error": "ValueError: run.py printed nothing"}
    summary = bench_pairs.summarize(runs, BETTER)
    assert summary["analysis_p50_s"]["head_better_in"] == "2 of 2"
    assert summary["analysis_p50_s"]["head_median"] == pytest.approx(0.41)
    assert summary["analysis_p50_s"]["base_median"] == 0.50


def test_workload_lists():
    assert bench_pairs.parse_workloads("all") == ["statements", "bulk", "tiny"]
    assert bench_pairs.parse_workloads("tiny,bulk") == ["tiny", "bulk"]
    for bad in ("bulk,bulk", "bulk,", "huge", ""):
        with pytest.raises(ValueError):
            bench_pairs.parse_workloads(bad)


def test_each_pair_runs_every_workload_on_both_sides_abba():
    assert bench_pairs.schedule(2, ["bulk", "tiny"]) == [
        (0, "bulk", 0, "base"), (0, "bulk", 1, "head"),
        (0, "tiny", 0, "base"), (0, "tiny", 1, "head"),
        (1, "bulk", 0, "head"), (1, "bulk", 1, "base"),
        (1, "tiny", 0, "head"), (1, "tiny", 1, "base"),
    ]


def test_summary_per_workload():
    """Each workload's summary reads its own runs only."""
    tiny = [(0, "base", run_line(0.010, 3.0e3, 38.0)),
            (0, "head", run_line(0.011, 2.9e3, 38.5)),
            (1, "head", run_line(0.009, 3.1e3, 37.5)),
            (1, "base", run_line(0.012, 2.8e3, 38.0))]
    runs = [{"workload": "bulk", **run} for run in recorded_runs()] + [
        {"pair": pair, "side": side, "workload": "tiny",
         **bench_pairs.parse_run_line(line)}
        for pair, side, line in tiny
    ]
    summary = bench_pairs.summarize_workloads(runs, BETTER)
    assert list(summary) == ["bulk", "tiny"]
    assert summary["bulk"] == bench_pairs.summarize(recorded_runs(), BETTER)
    p50 = summary["tiny"]["analysis_p50_s"]
    assert (p50["base_median"], p50["head_median"]) == pytest.approx((0.011, 0.010))
    assert p50["head_better_in"] == "1 of 2"
    assert summary["tiny"]["peak_rss_mb"]["head_better_in"] == "1 of 2"


def test_src_lines_counts_as_cat_and_wc_do(tmp_path):
    package = tmp_path / "src" / "numlaws"
    (package / "schemas").mkdir(parents=True)
    (package / "a.py").write_text("import b\n\nx = 1\n")
    (package / "b.py").write_text("y = 2")  # no final line break: wc counts none
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "schemas" / "c.py").write_text("nor\nthis\n")
    assert bench_pairs.src_lines(tmp_path) == 3

