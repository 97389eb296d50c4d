"""Metamorphic properties of the report: it depends only on how often each
value occurs in each corpus.

Each property changes an input in a way that must leave the report, or a
known part of it, as it was: a permutation of a corpus's values, a split
of one corpus into several pooled ones, every value times 10, and other
separators between the same integers in a file.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from numlaws import (
    AnalysisConfig,
    NumberCorpus,
    build_report,
    read_text_corpus,
    report_to_json,
)
from numlaws.errors import NumlawsError
from numlaws.pipeline import DIMENSIONS, _encode

# small values repeat, so the rank table has ties and counts above 1, and
# large ones spread the lengths; every value times 10 is still a float
_VALUE = st.one_of(st.integers(0, 30), st.integers(0, 10**300 - 1))
_VALUES = st.lists(_VALUE, min_size=1, max_size=40)

_CONFIG = AnalysisConfig(cutoff=True)


def _report(corpora) -> str:
    return report_to_json(build_report(corpora, _CONFIG))


@settings(max_examples=40, deadline=None)
@given(_VALUES, st.data())
def test_permuted_values_give_the_same_report(values, data):
    shuffled = data.draw(st.permutations(values))
    assert _report(NumberCorpus("c", shuffled)) == _report(NumberCorpus("c", values))


@settings(max_examples=20, deadline=None)
@given(st.lists(_VALUE, min_size=2, max_size=40), st.data())
def test_pooled_fit_of_a_split_corpus_is_the_law_fitted_to_the_whole(values, data):
    """Split one undated corpus into k undated parts: each pooled fit is the
    dimension's law fitted to the whole corpus's view, and a fit the whole
    corpus refuses is absent from the pooled fits."""
    k = data.draw(st.integers(2, min(4, len(values))))
    cuts = st.sets(st.integers(1, len(values) - 1), min_size=k - 1, max_size=k - 1)
    bounds = [0, *sorted(data.draw(cuts)), len(values)]
    parts = [values[a:b] for a, b in zip(bounds, bounds[1:])]
    corpora = [NumberCorpus(f"part{i}", part) for i, part in enumerate(parts)]
    pooled = build_report(corpora).pooled or {}
    whole = NumberCorpus("whole", values)
    for dimension, spec in DIMENSIONS.items():
        try:
            expected = spec.fit_law(spec.view.from_corpus(whole))
        except NumlawsError:
            assert dimension not in pooled
            continue
        assert pooled[dimension].residual_sum == expected.residual_sum
        assert pooled[dimension].model == expected.model


@settings(max_examples=40, deadline=None)
@given(_VALUES)
def test_every_value_times_ten(values):
    """Appending a zero to every value keeps the digit section and the
    value counts, and moves every nonzero value up one length."""
    before, after = (
        build_report(NumberCorpus("c", vs), _CONFIG).corpora[0].sections
        for vs in (values, [10 * v for v in values])
    )
    assert _encode(after["first_digit"]) == _encode(before["first_digit"])
    zeros = values.count(0)
    lengths = [zeros, before["length"].counts[0] - zeros, *before["length"].counts[1:]]
    while lengths[-1] == 0:
        lengths.pop()
    assert after["length"].counts == tuple(lengths)
    assert after["frequency"].counts == before["frequency"].counts
    assert after["frequency"].values == tuple(10 * v for v in before["frequency"].values)


@settings(max_examples=20, deadline=None)
@given(_VALUES)
def test_separators_between_the_integers_give_the_same_report(values):
    """One integer per line, space-separated or separated by ", ": each file
    gives the report of the corpus itself.  A bare "," or a thin space would
    be a thousands separator, joining "1,234" into one number."""
    reports = {_report(NumberCorpus("corpus", values))}
    with tempfile.TemporaryDirectory() as tmp:
        for i, separator in enumerate(("\n", " ", ", ")):
            path = Path(tmp) / str(i) / "corpus.txt"
            path.parent.mkdir()
            path.write_text(separator.join(map(str, values)) + "\n", encoding="utf-8")
            reports.add(_report(read_text_corpus(path)))
    assert len(reports) == 1
