"""Test-suite settings shared by every module under ``tests/``."""

from hypothesis import settings

# Deterministic examples, no example database and no deadline keep the suite
# reproducible from run to run and on slow machines.  Tests set only
# ``max_examples`` and health checks on top of this profile.
settings.register_profile("hapticnet", deadline=None, derandomize=True, database=None)
settings.load_profile("hapticnet")

