"""Hypothesis settings for the whole suite.

Examples are derived from each test's source rather than drawn at random,
so a hypothesis test is as reproducible as the seeded tests around it; no
example database is kept between runs, and no per-example deadline is set
because wall time on shared cores varies.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
