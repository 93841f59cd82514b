"""Hypothesis runs derandomized: each property test draws the same
examples on every run, so a tier-1 result does not depend on the seed."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
