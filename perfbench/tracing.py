"""Spans around the public functions of each numlaws layer.

The benchmark's own code replaces each function under the name that
``pipeline``, ``cli`` and ``fitting`` look it up by, records a span
(name, start, end, parent, analysis) and the counts the call reveals,
and restores the originals on exit.  Nothing inside numlaws changes.
"""

from __future__ import annotations

import contextlib
import json
import os
from time import perf_counter

from numlaws import cli, corpus, extract, fitting, pipeline


def _gamma(args, result):
    return {"iterations": result.iterations}


def _cutoff(args, result):
    return {"iterations": result.iterations, "converged": result.converged}


def _extract(args, result):
    return {"values": len(result), "bytes": os.path.getsize(args[0])}


def _json(args, result):
    return {"bytes": len(result.encode("utf-8"))}


def _bundles(args, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# (namespace, attribute, span name, what to record from the result)
FUNCTIONS = [
    (cli, "main", "cli.main", None),
    (cli, "read_text_corpus", "extract", _extract),
    (extract, "read_text_corpus", "extract", _extract),
    (cli, "build_report", "pipeline.build_report", None),
    (pipeline, "build_report", "pipeline.build_report", None),
    (cli, "report_to_json", "pipeline.to_json", _json),
    (pipeline, "report_to_json", "pipeline.to_json", _json),
    (cli, "write_plot_bundles", "pipeline.plot_bundles", _bundles),
    (pipeline, "corpus_stats", "corpus.stats", None),
    (fitting, "merge_corpora", "corpus.merge", None),
    (pipeline, "fit_benford", "fitting.benford", None),
    (pipeline, "fit_gamma", "fitting.gamma", _gamma),
    (pipeline, "fit_gamma_rate_zero", "fitting.gamma", _gamma),
    (fitting, "fit_gamma", "fitting.gamma", _gamma),
    (pipeline, "fit_zipf", "fitting.zipf", None),
    (pipeline, "fit_zipf_on_lengths", "fitting.zipf", None),
    (fitting, "fit_zipf", "fitting.zipf", None),
    (pipeline, "pooled_fit", "fitting.pooled", None),
    (fitting, "score_fit", "metrics.score", None),
    (pipeline, "estimate_cutoff_gamma", "cutoff.run", _cutoff),
    (pipeline, "estimate_cutoff_zipf", "cutoff.run", _cutoff),
]
VIEWS = [corpus.DigitHistogram, corpus.LengthHistogram, corpus.RankFrequencyTable]

# per-layer metric -> (unit, better); every one is reported per analysis
# unless it is a ratio or a rate
LAYER_METRICS = {
    "extract.busy_s": ("s", "lower"),
    "extract.values": ("count", "higher"),
    "extract.mb_per_s": ("MB/s", "higher"),
    "corpus.views_s": ("s", "lower"),
    "corpus.view_builds": ("count", "lower"),
    "corpus.stats_s": ("s", "lower"),
    "corpus.merge_s": ("s", "lower"),
    "fitting.gamma_s": ("s", "lower"),
    "fitting.gamma_fits": ("count", "lower"),
    "fitting.gamma_iterations": ("count", "lower"),
    "fitting.gamma_ok_ratio": ("ratio", "higher"),
    "fitting.zipf_s": ("s", "lower"),
    "fitting.benford_s": ("s", "lower"),
    "fitting.pooled_s": ("s", "lower"),
    "metrics.score_s": ("s", "lower"),
    "cutoff.busy_s": ("s", "lower"),
    "cutoff.runs": ("count", "lower"),
    "cutoff.iterations": ("count", "lower"),
    "cutoff.converged_ratio": ("ratio", "higher"),
    "pipeline.build_report_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "pipeline.to_json_s": ("s", "lower"),
    "pipeline.report_bytes": ("bytes", "lower"),
    "pipeline.plot_bundles_s": ("s", "lower"),
    "pipeline.plot_bytes": ("bytes", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
}


class Tracer:
    """In-memory spans; a span is [name, start, end, parent, analysis, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._analysis = -1

    def _wrap(self, fn, name, observe):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self._analysis, {}]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                span[5]["error"] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            span[2] = perf_counter()
            if observe is not None:
                span[5].update(observe(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def analysis(self, label):
        """Root span that every span of one analysis descends from."""
        index = len(self.spans)
        self._analysis = index
        self.spans.append(["analysis", perf_counter(), 0.0, -1, index, {"label": label}])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, observe in FUNCTIONS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, observe))
            for cls in VIEWS:
                original = cls.__dict__["from_corpus"]
                saved.append((cls, "from_corpus", original))
                setattr(cls, "from_corpus",
                        classmethod(self._wrap(original.__func__, "corpus.view", None)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        payload = {"fields": ["name", "start", "end", "parent", "analysis", "attrs"],
                   "spans": self.spans}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")

    def layer_metrics(self) -> dict:
        """Per-analysis figures for every layer metric."""
        spans = self.spans
        analyses = sum(1 for s in spans if s[0] == "analysis") or 1
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(spans)
        for s in spans:
            duration = s[2] - s[1]
            busy[s[0]] = busy.get(s[0], 0.0) + duration
            calls[s[0]] = calls.get(s[0], 0) + 1
            if s[3] >= 0:
                child_time[s[3]] += duration

        def attr_sum(name, key):
            return sum(s[5].get(key, 0) for s in spans if s[0] == name)

        def self_time(name):
            return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == name)

        def ratio(num, den):
            return num / den if den else 0.0

        gamma_ok = sum(1 for s in spans if s[0] == "fitting.gamma" and "error" not in s[5])
        cutoff_ok = sum(1 for s in spans if s[0] == "cutoff.run" and s[5].get("converged"))
        extract_mb = attr_sum("extract", "bytes") / 1e6
        per = {
            "extract.busy_s": busy.get("extract", 0.0),
            "extract.values": attr_sum("extract", "values"),
            "corpus.views_s": busy.get("corpus.view", 0.0),
            "corpus.view_builds": calls.get("corpus.view", 0),
            "corpus.stats_s": busy.get("corpus.stats", 0.0),
            "corpus.merge_s": busy.get("corpus.merge", 0.0),
            "fitting.gamma_s": busy.get("fitting.gamma", 0.0),
            "fitting.gamma_fits": calls.get("fitting.gamma", 0),
            "fitting.gamma_iterations": attr_sum("fitting.gamma", "iterations"),
            "fitting.zipf_s": busy.get("fitting.zipf", 0.0),
            "fitting.benford_s": busy.get("fitting.benford", 0.0),
            "fitting.pooled_s": busy.get("fitting.pooled", 0.0),
            "metrics.score_s": busy.get("metrics.score", 0.0),
            "cutoff.busy_s": busy.get("cutoff.run", 0.0),
            "cutoff.runs": calls.get("cutoff.run", 0),
            "cutoff.iterations": attr_sum("cutoff.run", "iterations"),
            "pipeline.build_report_s": busy.get("pipeline.build_report", 0.0),
            "pipeline.self_s": self_time("pipeline.build_report"),
            "pipeline.to_json_s": busy.get("pipeline.to_json", 0.0),
            "pipeline.report_bytes": attr_sum("pipeline.to_json", "bytes"),
            "pipeline.plot_bundles_s": busy.get("pipeline.plot_bundles", 0.0),
            "pipeline.plot_bytes": attr_sum("pipeline.plot_bundles", "bytes"),
            "cli.main_s": busy.get("cli.main", 0.0),
            "cli.self_s": self_time("cli.main"),
        }
        out = {name: value / analyses for name, value in per.items()}
        out["extract.mb_per_s"] = ratio(extract_mb, busy.get("extract", 0.0))
        out["fitting.gamma_ok_ratio"] = ratio(gamma_ok, calls.get("fitting.gamma", 0))
        out["cutoff.converged_ratio"] = ratio(cutoff_ok, calls.get("cutoff.run", 0))
        return {name: out[name] for name in LAYER_METRICS}
