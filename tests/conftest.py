"""Test-suite settings shared by every module under ``tests/``."""

import pytest
from hypothesis import settings

from hapticnet.io import formats

# Deterministic examples, no example database and no deadline keep the suite
# reproducible from run to run and on slow machines.  Tests set only
# ``max_examples`` and health checks on top of this profile.
settings.register_profile("hapticnet", deadline=None, derandomize=True, database=None)
settings.load_profile("hapticnet")


@pytest.fixture(autouse=True)
def no_trial_parse_held(monkeypatch):
    """Each test starts with no trial-file parse held by an earlier
    ``validate``, so whether a read parses does not depend on test order."""
    monkeypatch.setattr(formats, "_HANDOFF", formats._Handoff())
