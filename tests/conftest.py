"""Set-up shared by every test module."""

import pytest

from curvlab import cli


@pytest.fixture(autouse=True)
def fresh_resolution_caches():
    """Each test starts with no metric or map resolved, so its loads and builds count from 0."""
    for cached in (cli._builtin, cli._file_metric, cli._holo_map):
        cached.cache_clear()
