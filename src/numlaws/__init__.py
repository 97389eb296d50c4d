"""Number-corpus forensics: Benford, Zipf and discrete-Gamma conformity.

Extract integer populations from documents, test them along three
dimensions (first digit, value frequency, decimal length), score the
fits with four metrics, estimate usage boundaries, and emit anomaly
reports.
"""

from .corpus import (
    CorpusStats,
    DigitHistogram,
    LengthHistogram,
    NumberCorpus,
    RankFrequencyTable,
    corpus_stats,
    merge_corpora,
)
from .cutoff import (
    BoundarySummary,
    CutoffEstimate,
    cutoff_report,
    estimate_cutoff_gamma,
    estimate_cutoff_zipf,
)
from .extract import extract_numbers, read_csv_corpus, read_text_corpus
from .fitting import (
    FitResult,
    fit_benford,
    fit_gamma,
    fit_gamma_rate_zero,
    fit_zipf,
    fit_zipf_on_lengths,
    pooled_fit,
)
from .laws import (
    BenfordModel,
    GammaModel,
    ZipfModel,
    discrete_normalize,
)
from .metrics import (
    FitVerdict,
    MetricScores,
    classify_fit,
    js_divergence,
    kl_divergence,
    mape,
    r_squared,
    score_fit,
)
from .pipeline import (
    AnalysisConfig,
    AnalysisReport,
    AnalysisSection,
    TrendFinding,
    analyze_dimension,
    build_report,
    report_to_json,
    trend_over_years,
    write_plot_bundles,
)
from .synth import sample

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "AnalysisSection",
    "BenfordModel",
    "BoundarySummary",
    "CorpusStats",
    "CutoffEstimate",
    "DigitHistogram",
    "FitResult",
    "FitVerdict",
    "GammaModel",
    "LengthHistogram",
    "MetricScores",
    "NumberCorpus",
    "RankFrequencyTable",
    "TrendFinding",
    "ZipfModel",
    "analyze_dimension",
    "build_report",
    "classify_fit",
    "corpus_stats",
    "cutoff_report",
    "discrete_normalize",
    "estimate_cutoff_gamma",
    "estimate_cutoff_zipf",
    "extract_numbers",
    "fit_benford",
    "fit_gamma",
    "fit_gamma_rate_zero",
    "fit_zipf",
    "fit_zipf_on_lengths",
    "js_divergence",
    "kl_divergence",
    "mape",
    "merge_corpora",
    "pooled_fit",
    "r_squared",
    "read_csv_corpus",
    "read_text_corpus",
    "report_to_json",
    "sample",
    "score_fit",
    "trend_over_years",
    "write_plot_bundles",
]
