"""Hypothesis runs derandomized: each property test draws the same
examples on every run, so a tier-1 result does not depend on the seed.
tools/ is put on the import path, so that the tests read the group
families of tools/families.py as tools/parity.py does."""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
