"""Suite-wide fixtures."""

import pytest

from repro.orb import giop, ior


@pytest.fixture(autouse=True)
def _fresh_wire_caches():
    """Start every test with empty wire caches and no admission state:
    the caches are process-global, so a miss streak left by one test
    would otherwise decide which lookups the next one bypasses."""
    giop.clear_caches()
    ior.clear_caches()
    yield
