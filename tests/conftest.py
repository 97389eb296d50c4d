"""Test-suite settings: Hypothesis draws the same examples on every run.

Each property test keeps its own ``max_examples`` and ``deadline``; the
profile only seeds the draws from the test itself, so a failure seen once
is seen again.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
