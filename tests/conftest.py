"""Session-wide test settings.

Hypothesis runs under a derandomized profile: each property test draws the
same examples in every run, so a tier-1 result does not depend on the run.
Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
