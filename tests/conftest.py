"""Test-suite settings and shared helpers.

Hypothesis draws the same examples on every run.

Each property test keeps its own ``max_examples`` and ``deadline``; the
profile only seeds the draws from the test itself, so a failure seen once
is seen again.
"""

import types

from hypothesis import settings

from numlaws import NumberCorpus, ZipfModel, sample

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def histogram(support, frequencies):
    """A fit input: any object with ``support`` and ``frequencies``."""
    return types.SimpleNamespace(support=support, frequencies=frequencies)


def zipf_corpus(n, alpha, support_size, seed, label="zipf-synth", year=None):
    """Corpus of n draws over values 1..support_size with pmf ~ r**-alpha."""
    values = sample(ZipfModel(alpha, 1.0), range(1, support_size + 1), n, seed)
    return NumberCorpus(label=label, values=values.tolist(), year=year)
