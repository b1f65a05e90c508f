"""Suite-wide test settings.

Hypothesis draws its examples from a seed derived from each test function,
and keeps no example database, so every run checks the same cases; the
number of examples per test stays at Hypothesis' default.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
