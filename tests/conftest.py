"""Suite-wide fixtures."""

import pytest

from repro.orb import giop, ior
from repro.orb.modules import base as modules_base


@pytest.fixture(autouse=True)
def _fresh_wire_caches():
    """Start every test with empty wire caches (GIOP spans and heads,
    IOR parses, module-envelope headers) and no admission state: the
    caches are process-global, so a miss streak left by one test would
    otherwise decide which lookups the next one bypasses."""
    giop.clear_caches()
    ior.clear_caches()
    modules_base.clear_envelope_tables()
    yield
