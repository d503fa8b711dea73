"""Shared fixtures.

The CLI keeps one grading per spec string for the life of the process
(`cli._grading`).  Each test starts from a fresh process state, so a count
of the work one query does, or a budget a test lowers, does not depend on
which queries earlier tests ran.
"""

import pytest

from gradus import cli


@pytest.fixture(autouse=True)
def fresh_cli_gradings():
    cli._grading.cache_clear()
    yield
    cli._grading.cache_clear()
